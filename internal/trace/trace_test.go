package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sampleOps() []Op {
	return []Op{
		{Kind: TxBegin},
		{Kind: Read, Addr: 0x1000},
		{Kind: Write, Addr: 0x1040},
		{Kind: Compute, Arg: 17},
		{Kind: Flush, Addr: 0x1040},
		{Kind: Fence},
		{Kind: TxEnd},
	}
}

func TestSliceSource(t *testing.T) {
	src := NewSliceSource(sampleOps())
	if src.Len() != 7 {
		t.Fatalf("Len = %d, want 7", src.Len())
	}
	var got []Op
	for op, ok := src.Next(); ok; op, ok = src.Next() {
		got = append(got, op)
	}
	if !reflect.DeepEqual(got, sampleOps()) {
		t.Fatalf("drained %v", got)
	}
	if _, ok := src.Next(); ok {
		t.Fatal("exhausted source returned another op")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, sampleOps()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sampleOps()) {
		t.Fatalf("round trip mismatch: %v", got)
	}
}

func TestBinaryRoundTripEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty trace decoded to %d ops", len(got))
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"bad magic":  []byte("NOTATRACE"),
		"empty":      {},
		"truncated":  append([]byte("SMTR1\n"), 0xff, 0xff, 0xff),
		"bad kind":   append([]byte("SMTR1\n"), 1, 99),
		"huge count": append([]byte("SMTR1\n"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f),
	}
	for name, data := range cases {
		if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: ReadBinary accepted invalid input", name)
		}
	}
}

func TestQuickBinaryRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]Op, int(n))
		for i := range ops {
			ops[i].Kind = Kind(rng.Intn(int(Reset) + 1))
			switch ops[i].Kind {
			case Read, Write, Flush:
				ops[i].Addr = rng.Uint64() >> uint(rng.Intn(40))
			case Compute:
				ops[i].Arg = uint64(rng.Intn(100000))
			}
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, ops); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		if len(ops) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, ops)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestOpString(t *testing.T) {
	cases := []struct {
		op   Op
		want string
	}{
		{Op{Kind: Read, Addr: 0x40}, "R 0x40"},
		{Op{Kind: Compute, Arg: 5}, "C 5"},
		{Op{Kind: Fence}, "SF"},
		{Op{Kind: TxBegin}, "TB"},
	}
	for _, c := range cases {
		if got := c.op.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
	if !strings.Contains(Kind(200).String(), "200") {
		t.Error("unknown kind should include its value")
	}
}
