package replay

import (
	"bytes"
	"testing"

	"repro/internal/minic/types"
	"repro/internal/oskit"
	"repro/internal/vm"
)

func TestRecorderLogsInputs(t *testing.T) {
	w := oskit.NewWorld(1)
	w.AddFile(5, []int64{10, 20, 30})
	rec := NewRecorder(w, vm.DefaultCost())

	fd, _, _, cost, err := rec.Input(0, types.BOpen, []int64{5}, nil, 0)
	if err != nil || fd < 0 {
		t.Fatalf("open: %v fd=%d", err, fd)
	}
	if cost <= 0 {
		t.Errorf("logging should cost cycles")
	}
	n, data, _, _, err := rec.Input(0, types.BRead, []int64{fd, 0, 3}, nil, 100)
	if err != nil || n != 3 || len(data) != 3 {
		t.Fatalf("read: %v n=%d data=%v", err, n, data)
	}
	log := rec.Log()
	if log.InputCount() != 2 {
		t.Errorf("input count = %d, want 2", log.InputCount())
	}
	if got := log.Inputs[0][1]; got.Op != types.BRead || got.Val != 3 || got.Data[2] != 30 {
		t.Errorf("read record wrong: %+v", got)
	}
}

func TestRecorderLogsOrder(t *testing.T) {
	rec := NewRecorder(oskit.NewWorld(1), vm.DefaultCost())
	key := vm.SyncKey{Class: vm.SyncMutex, ID: 42}
	if !rec.TryProceed(key, vm.EvAcquire, 1) {
		t.Fatal("recording must never gate")
	}
	rec.Commit(key, vm.EvAcquire, 1, 10)
	rec.Commit(key, vm.EvAcquire, 2, 20)
	log := rec.Log()
	if log.OrderCount() != 2 {
		t.Fatalf("order count = %d", log.OrderCount())
	}
	if log.Orders[key][0].Tid != 1 || log.Orders[key][1].Tid != 2 {
		t.Errorf("order wrong: %+v", log.Orders[key])
	}
}

// replaySources opens a Log both ways the replay gate is fed: decoded in
// memory, and streamed from its CHIMLOG2 encoding.
var replaySources = []struct {
	name string
	open func(*testing.T, *Log) *Replayer
}{
	{"log", func(t *testing.T, log *Log) *Replayer { return NewReplayer(log, vm.DefaultCost()) }},
	{"stream", func(t *testing.T, log *Log) *Replayer {
		var buf bytes.Buffer
		if _, err := log.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		rep, err := NewStreamReplayer(bytes.NewReader(buf.Bytes()), vm.DefaultCost())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}},
}

func TestReplayerEnforcesOrder(t *testing.T) {
	for _, src := range replaySources {
		t.Run(src.name, func(t *testing.T) {
			log := NewLog()
			key := vm.SyncKey{Class: vm.SyncMutex, ID: 7}
			log.Orders[key] = []OrderRec{{Tid: 2, Kind: vm.EvAcquire}, {Tid: 1, Kind: vm.EvAcquire}}
			rep := src.open(t, log)

			if rep.TryProceed(key, vm.EvAcquire, 1) {
				t.Errorf("thread 1 must wait (thread 2 recorded first)")
			}
			if !rep.TryProceed(key, vm.EvAcquire, 2) {
				t.Errorf("thread 2 should proceed")
			}
			rep.Commit(key, vm.EvAcquire, 2, 0)
			if !rep.TryProceed(key, vm.EvAcquire, 1) {
				t.Errorf("thread 1 should proceed after thread 2 committed")
			}
			rep.Commit(key, vm.EvAcquire, 1, 0)
			if !rep.Drained() {
				t.Errorf("log should be drained")
			}
			if rep.Err() != nil {
				t.Errorf("unexpected divergence: %v", rep.Err())
			}
			if len(log.Orders[key]) != 2 {
				t.Errorf("replay modified the log: %+v", log.Orders[key])
			}
		})
	}
}

func TestReplayerDetectsInputDivergence(t *testing.T) {
	for _, src := range replaySources {
		t.Run(src.name, func(t *testing.T) {
			log := NewLog()
			log.Inputs[0] = []InputRec{{Op: types.BRead, Val: 4}}
			rep := src.open(t, log)
			_, _, _, _, err := rep.Input(0, types.BRecv, []int64{1, 2, 3}, nil, 0)
			if err == nil {
				t.Fatalf("op mismatch must diverge")
			}
			rep2 := src.open(t, NewLog())
			_, _, _, _, err = rep2.Input(0, types.BRead, []int64{1, 2, 3}, nil, 0)
			if err == nil {
				t.Fatalf("extra input must diverge")
			}
		})
	}
}

func TestReplayerDetectsExtraSyncOps(t *testing.T) {
	for _, src := range replaySources {
		t.Run(src.name, func(t *testing.T) {
			rep := src.open(t, NewLog())
			key := vm.SyncKey{Class: vm.SyncMutex, ID: 9}
			if rep.TryProceed(key, vm.EvAcquire, 0) {
				t.Errorf("extra op must not proceed")
			}
			if rep.Err() == nil {
				t.Errorf("divergence should be recorded")
			}
		})
	}
}

func TestSerializationRoundNumbers(t *testing.T) {
	log := NewLog()
	log.Inputs[0] = []InputRec{{Op: types.BRead, Val: 3, Data: []int64{1, 2, 3}}}
	log.Inputs[2] = []InputRec{{Op: types.BNow, Val: 99}}
	key := vm.SyncKey{Class: vm.SyncWeakLock, ID: 5}
	for i := 0; i < 100; i++ {
		log.Orders[key] = append(log.Orders[key], OrderRec{Tid: int32(i % 3), Kind: vm.EvWLAcquire})
	}
	ib := log.InputBytes()
	ob := log.OrderBytes()
	if len(ib) == 0 || len(ob) == 0 {
		t.Fatalf("empty serialization")
	}
	if GzipSize(ob) >= len(ob)+20 {
		t.Errorf("gzip should not grow a repetitive log much: %d vs %d", GzipSize(ob), len(ob))
	}
	if log.InputLogKB() <= 0 || log.OrderLogKB() <= 0 {
		t.Errorf("sizes should be positive")
	}
}

func TestOrderCountByClass(t *testing.T) {
	log := NewLog()
	log.Orders[vm.SyncKey{Class: vm.SyncMutex, ID: 1}] = []OrderRec{{}, {}}
	log.Orders[vm.SyncKey{Class: vm.SyncWeakLock, ID: 2}] = []OrderRec{{}}
	if log.OrderCount(vm.SyncMutex) != 2 {
		t.Errorf("mutex count wrong")
	}
	if log.OrderCount(vm.SyncWeakLock) != 1 {
		t.Errorf("weaklock count wrong")
	}
	if log.OrderCount() != 3 {
		t.Errorf("total count wrong")
	}
}
