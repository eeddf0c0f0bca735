package main

import "fmt"

// daemonSeed is the daemon's -seed in every workload. The workload seed
// shapes only the inputs (the event stream and the pinned minute), so
// training, and with it set-up, is the same for every run.
const daemonSeed = 1

// workload is one operator-shaped traffic mix: how the daemon is started
// and how the hub and the recommend connection drive it. Both connections
// speak Codec. The hub is open loop at HubRate; the recommend connection
// is closed loop with Batch recommends per round trip.
type workload struct {
	Name    string
	Why     string
	WALSync string // the daemon's -wal-sync
	DNN     bool   // -dnn: the compiled table is refused, every recommend runs the agent
	HubRate int    // events per second
	Codec   string // "binary" | "json"
	Batch   int
	// Unsteady, when set, says why the workload is left out of
	// BENCHMARK.json: it still runs by name and under --workload all.
	Unsteady string
}

var workloads = []workload{
	{
		Name:    "durable-mix",
		Why:     "default fsync-per-record durability: the WAL does nearly all the work",
		WALSync: "record", HubRate: 50, Codec: "binary", Batch: 16,
		Unsteady: "each batch holds the state lock through 16 fsyncs, and whether an event wins the lock " +
			"at the batch's end depends on which core is free: event p50 flips between ~1.2 and ~3 ms from run to run",
	},
	{
		Name:    "home-mix",
		Why:     "interval fsync: codec, record encode, write(2) and compiled rebuilds show",
		WALSync: "interval", HubRate: 100, Codec: "binary", Batch: 16,
	},
	{
		Name:    "json-dqn-mix",
		Why:     "the paper's DQN backend over the JSON codec: agent path and DQN updates",
		WALSync: "interval", DNN: true, HubRate: 100, Codec: "json", Batch: 1,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// daemonArgs is the operator shape: WAL on at the workload's fsync policy,
// telemetry and the debug listener on, default training size, ephemeral
// ports, the benchmark's pinned minute.
func (w workload) daemonArgs(walDir string, minute int) []string {
	args := []string{
		"-addr", "127.0.0.1:0",
		"-debug-addr", "127.0.0.1:0",
		"-seed", fmt.Sprint(daemonSeed),
		"-wal", walDir,
		"-wal-sync", w.WALSync,
		"-fixed-minute", fmt.Sprint(minute),
	}
	if w.DNN {
		args = append(args, "-dnn")
	}
	return args
}

func (w workload) describe() string {
	backend := "tabular, compiled tables on"
	if w.DNN {
		backend = "dqn, compiled table refused"
	}
	rec := fmt.Sprintf("closed loop, %d per round trip", w.Batch)
	if w.Batch == 1 {
		rec = "closed loop, lockstep"
	}
	return fmt.Sprintf("hub %d events/s open loop; one recommend connection, %s; codec %s; -wal-sync %s; %s",
		w.HubRate, rec, w.Codec, w.WALSync, backend)
}
