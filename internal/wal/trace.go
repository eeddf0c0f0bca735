package wal

import "jarvis/internal/trace"

// CommitTraced is Commit under a "wal.append" child span annotated with
// the batch's record and byte counts — the durability cost inside a traced
// request's journey. A nil span adds one nil check, keeping Commit
// allocation-free for untraced writers.
func (l *Log) CommitTraced(sp *trace.Span, b *Batch) error {
	child := sp.Child("wal.append")
	err := l.Commit(b)
	if child != nil {
		child.AnnotateInt("records", int64(b.Len()))
		child.AnnotateInt("bytes", int64(len(b.frames)))
		if err != nil {
			child.Annotate("error", err.Error())
		}
		child.End()
	}
	return err
}
