package pmem

import (
	"bytes"
	"testing"

	"supermem/internal/machine"
	"supermem/internal/trace"
)

func TestStageNames(t *testing.T) {
	if StagePrepare.String() != "prepare" || StageMutate.String() != "mutate" || StageCommit.String() != "commit" {
		t.Fatal("stage names wrong")
	}
	if Stage(9).String() == "" {
		t.Fatal("unknown stage has empty name")
	}
}

func TestStageHookFiresInOrder(t *testing.T) {
	b := NewTracingBackend()
	tm := NewTxManager(b, logBase, logSize)
	var got []Stage
	tm.StageHook = func(s Stage) { got = append(got, s) }
	tx := tm.Begin()
	tx.Write(dataAt, []byte("x"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	want := []Stage{StagePrepare, StageMutate, StageCommit}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("stages fired %v, want %v", got, want)
	}
}

func TestEnableMarkersOff(t *testing.T) {
	b := NewTracingBackend()
	tm := NewTxManager(b, logBase, logSize)
	tm.EnableMarkers(false)
	tx := tm.Begin()
	tx.Write(dataAt, []byte("x"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, op := range b.Ops() {
		if op.Kind == trace.TxBegin || op.Kind == trace.TxEnd {
			t.Fatal("markers emitted while disabled")
		}
	}
	tm.EnableMarkers(true)
	tx = tm.Begin()
	tx.Write(dataAt, []byte("y"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, op := range b.Ops() {
		if op.Kind == trace.TxBegin {
			found = true
		}
	}
	if !found {
		t.Fatal("markers missing after re-enable")
	}
}

func TestWriteFreshSkipsLog(t *testing.T) {
	b := NewTracingBackend()
	tm := NewTxManager(b, logBase, logSize)
	tx := tm.Begin()
	tx.WriteFresh(dataAt, make([]byte, 256))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// The fresh extent must not appear in the log region as a record
	// (only the header line is written).
	for _, op := range b.Ops() {
		if op.Kind == trace.Write && op.Addr >= logBase+headerBytes && op.Addr < logBase+logSize {
			t.Fatalf("fresh write produced a log record at %#x", op.Addr)
		}
	}
	if got := b.Load(dataAt, 4); !bytes.Equal(got, []byte{0, 0, 0, 0}) {
		t.Fatal("fresh write content wrong")
	}
}

// Fresh extents must be durable before the log seals: crash at any
// point never lets a reapplied pointer expose a torn fresh page.
func TestWriteFreshCrashSafety(t *testing.T) {
	fresh := make([]byte, 128)
	for i := range fresh {
		fresh[i] = byte(i)
	}
	ptrOld := []byte("pointer-old-----")
	ptrNew := []byte("pointer-new-----")
	probe, _ := machine.New(machine.WTRegister, testKey)
	tmp := NewTxManager(probe, logBase, logSize)
	tx := tmp.Begin()
	tx.Write(dataAt, ptrOld)
	tx.Commit()
	before := probe.Persists()
	tx = tmp.Begin()
	tx.WriteFresh(dataAt+4096, fresh)
	tx.Write(dataAt, ptrNew)
	tx.Commit()
	total := probe.Persists() - before

	for crashAt := 0; crashAt < total; crashAt++ {
		m, _ := machine.New(machine.WTRegister, testKey)
		tm := NewTxManager(m, logBase, logSize)
		tx := tm.Begin()
		tx.Write(dataAt, ptrOld)
		tx.Commit()
		m.ArmCrashAtPersist(crashAt)
		tx = tm.Begin()
		tx.WriteFresh(dataAt+4096, fresh)
		tx.Write(dataAt, ptrNew)
		tx.Commit()
		r := m.Recover()
		Recover(r, logBase, logSize)
		ptr := r.Load(dataAt, len(ptrNew))
		switch {
		case bytes.Equal(ptr, ptrOld):
			// Fresh page unreachable: fine regardless of its state.
		case bytes.Equal(ptr, ptrNew):
			// Pointer committed: the fresh page must be fully intact.
			if got := r.Load(dataAt+4096, len(fresh)); !bytes.Equal(got, fresh) {
				t.Fatalf("crash@%d: committed pointer exposes torn fresh page", crashAt)
			}
		default:
			t.Fatalf("crash@%d: pointer is garbage: %q", crashAt, ptr)
		}
	}
}

func TestBackendAccessor(t *testing.T) {
	b := NewTracingBackend()
	tm := NewTxManager(b, logBase, logSize)
	if tm.Backend() != b {
		t.Fatal("Backend() lost the backend")
	}
}
