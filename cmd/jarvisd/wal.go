package main

import (
	"jarvis/internal/replay"
	"jarvis/internal/trace"
	"jarvis/internal/wal"
)

// The daemon journals three record kinds to its write-ahead log — evt
// (every applied device event), txn (every event the learning path
// accepted), and rec (every recommendation served). The record layout and
// its semantics live in internal/replay: replay.Home's live ops produce
// the records (through the server's journal hook) and replay.Home.Apply
// applies them, for boot recovery, follower apply and `jarvis whatif`
// alike.
//
// Records carry a per-kind sequence number. A checkpoint save persists
// all three counters and then resets the log; if the daemon crashes
// between the save and the reset, replay skips every record whose
// sequence the checkpoint already covers, so the overlap window
// double-applies nothing.
//
// Journaling is two steps. journal frames a record into the server's
// pending batch; commitWAL writes the batch with one Log.Commit (one
// write(2), and under -wal-sync record one fsync). The batch is committed
// before s.mu is released — at the end of a binary batch or a JSON
// request, after a follower applies a record, before a WAL reset, and
// before a decision is logged — so it is empty whenever s.mu is free: the
// WAL order is the order state changed in, across connections, no
// response leaves before the records it acknowledges are committed, and
// the decision log never runs ahead of the WAL.

// walSpan is the first/last kind-local sequence number currently sitting
// in the journal — the /healthz view of what a crash would replay.
type walSpan struct {
	First int `json:"first"`
	Last  int `json:"last"`
}

// noteWALRecord folds one journaled (or boot-replayed) record into the
// per-kind span map. Caller holds s.mu.
func (s *server) noteWALRecord(k string, n int) {
	if s.walSpans == nil {
		s.walSpans = make(map[string]walSpan)
	}
	sp, ok := s.walSpans[k]
	if !ok {
		s.walSpans[k] = walSpan{First: n, Last: n}
		return
	}
	if n < sp.First {
		sp.First = n
	}
	if n > sp.Last {
		sp.Last = n
	}
	s.walSpans[k] = sp
}

// walNote is a pending record's kind and sequence number, folded into the
// span map and the per-kind counters once its commit succeeds.
type walNote struct {
	k string
	n int
}

// journal is the Home's Journal hook: it frames one record into the
// pending batch, which commitWAL writes. Caller holds s.mu.
func (s *server) journal(rec replay.Record) {
	if s.wal == nil {
		return
	}
	s.walScratch = rec.AppendBinary(s.walScratch[:0])
	if err := s.walBatch.Add(s.walScratch); err != nil {
		mWALAppendFailures.Inc()
		s.cfg.Logf("jarvisd: wal append (%s #%d) failed: %v", rec.K, rec.N, err)
		return
	}
	s.walPending = append(s.walPending, walNote{rec.K, rec.N})
}

// commitWAL writes the pending batch with one Log.Commit, under a
// wal.append child of sp when the request is sampled. A failed commit
// degrades durability, never availability: every record in it is counted
// as failed, one line is logged, and the requests proceed. Caller holds
// s.mu; the batch is empty on return.
func (s *server) commitWAL(sp *trace.Span) {
	n := s.walBatch.Len()
	if n == 0 {
		return
	}
	if err := s.wal.CommitTraced(sp, &s.walBatch); err != nil {
		mWALAppendFailures.Add(int64(n))
		first, last := s.walPending[0], s.walPending[n-1]
		s.cfg.Logf("jarvisd: wal commit of %d records (%s #%d .. %s #%d) failed: %v",
			n, first.k, first.n, last.k, last.n, err)
	} else {
		for _, p := range s.walPending {
			mWALRecords[p.k].Inc()
			s.noteWALRecord(p.k, p.n)
		}
	}
	s.walBatch.Reset()
	s.walPending = s.walPending[:0]
}

// resetWAL empties the journal once a checkpoint or an adopted snapshot
// covers it, committing any pending records first. A failed reset leaves
// stale records that replay skips by sequence number. Caller holds s.mu.
func (s *server) resetWAL(after string) {
	if s.wal == nil {
		return
	}
	s.commitWAL(nil)
	if err := s.wal.Reset(); err != nil {
		s.cfg.Logf("jarvisd: wal reset after %s failed: %v", after, err)
		return
	}
	s.walSpans = nil
}

// openWAL opens (or creates) the journal and replays whatever survived the
// last run on top of the restored checkpoint. Must run after the restore /
// fresh-training decision so the replay applies to the correct base state.
// A WAL that cannot be opened disables journaling for this run rather than
// keeping the daemon down — the failure is loud in the log and in
// wal.append.failures staying at zero.
func (s *server) openWAL() {
	wl, err := wal.Open(s.cfg.WALDir, wal.Options{Policy: s.cfg.WALSync, OpenFile: s.cfg.WALOpenFile})
	if err != nil {
		s.cfg.Logf("jarvisd: wal unavailable (%v); continuing without journaling", err)
		return
	}
	s.wal = wl
	if rs := wl.Recovery(); rs.TruncatedBytes > 0 {
		s.cfg.Logf("jarvisd: wal recovery truncated %d torn bytes", rs.TruncatedBytes)
	}
	events0, txns0 := s.h.Events, s.h.Steps
	err = wl.Replay(func(b []byte) error { return s.applyRecord(b, false) })
	if err != nil {
		s.cfg.Logf("jarvisd: wal replay stopped early: %v", err)
	}
	if s.h.Events != events0 || s.h.Steps != txns0 {
		s.cfg.Logf("jarvisd: wal replay reapplied %d events, %d learning transitions",
			s.h.Events-events0, s.h.Steps-txns0)
	}
}

// applyRecord runs one journaled record frame through Home.Apply and adds
// the daemon's side effects. Boot recovery only counts what it reapplied.
// A follower (shipped) also re-journals each applied record and, with a
// decision log, logs the decisions Apply regenerates, so a promoted
// follower's decision log verifies against its WAL like a primary's. A bad
// record is logged and skipped, never fatal, so the error is always nil.
func (s *server) applyRecord(b []byte, shipped bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	where := "wal replay"
	if shipped {
		where = "replication"
	}
	rec, err := replay.DecodeRecord(b)
	if err != nil {
		// The framing CRC already passed, so this is a foreign or
		// future-format record: skip it, don't kill recovery.
		s.cfg.Logf("jarvisd: %s: skipping undecodable record: %v", where, err)
		return nil
	}
	if !shipped {
		// Even a record the checkpoint already covers still sits in the
		// journal until the next reset; the span map reports what is on
		// disk, not what was applied.
		s.noteWALRecord(rec.K, rec.N)
	}
	o, err := s.h.Apply(rec, shipped && s.decisions != nil)
	if err != nil {
		s.cfg.Logf("jarvisd: %s: %v", where, err)
	}
	if !o.OK {
		return nil
	}
	s.noteOutcome(o, rec.D)
	if !shipped {
		mWALReplayed[rec.K].Inc()
		return nil
	}
	s.journal(rec)
	s.commitWAL(nil)
	mReplApplied[rec.K].Inc()
	if o.Decided {
		s.logDecision(nil, o, 0)
	}
	return nil
}
