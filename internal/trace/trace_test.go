package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
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

// TestStreamCanonical packs every kind, the highest line address, the
// largest Compute arg and a Read carrying an Arg, and checks that At,
// replay and the binary codec all yield the canonical ops.
func TestStreamCanonical(t *testing.T) {
	ops := []Op{
		{Kind: Read, Addr: 0xffff_ffff_ffff_ffc0},
		{Kind: Read, Addr: 0x40, Arg: 99},
		{Kind: Write, Addr: 0x80, Arg: 1},
		{Kind: Flush, Addr: 0xffff_ffff_ffff_ffc0},
		{Kind: Fence, Addr: 7, Arg: 7},
		{Kind: Compute, Arg: 1<<64 - 1},
		{Kind: Compute, Addr: 0x40, Arg: 3},
		{Kind: TxBegin, Addr: 1},
		{Kind: TxEnd, Arg: 1},
		{Kind: Reset, Addr: 1, Arg: 1},
	}
	want := []Op{
		{Kind: Read, Addr: 0xffff_ffff_ffff_ffc0},
		{Kind: Read, Addr: 0x40},
		{Kind: Write, Addr: 0x80},
		{Kind: Flush, Addr: 0xffff_ffff_ffff_ffc0},
		{Kind: Fence},
		{Kind: Compute, Arg: 1<<64 - 1},
		{Kind: Compute, Arg: 3},
		{Kind: TxBegin},
		{Kind: TxEnd},
		{Kind: Reset},
	}
	s := Pack(ops)
	if len(s) != len(ops) || cap(s) != len(ops) {
		t.Fatalf("Pack: len %d cap %d for %d ops", len(s), cap(s), len(ops))
	}
	if size := unsafe.Sizeof(s[0]); size != 9 {
		t.Fatalf("a packed op takes %d bytes, want 9", size)
	}
	for i, w := range want {
		if got := s.At(i); got != w {
			t.Errorf("At(%d) = %+v, want %+v", i, got, w)
		}
	}
	if got := drain(s.Source()); !reflect.DeepEqual(got, want) {
		t.Errorf("replay = %v, want %v", got, want)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Ops(), want) {
		t.Errorf("binary round trip = %v, want %v", got.Ops(), want)
	}
}

// TestBuilderStreamExactSize records across several chunks; the
// finished stream must hold exactly the recorded ops, in order, with no
// spare capacity.
func TestBuilderStreamExactSize(t *testing.T) {
	var b Builder
	const n = 3*8192 + 5
	for i := 0; i < n; i++ {
		b.Append(Op{Kind: Write, Addr: uint64(i) << 6})
	}
	s := b.Stream()
	if len(s) != n || cap(s) != n {
		t.Fatalf("Stream: len %d cap %d, want %d", len(s), cap(s), n)
	}
	for i := range s {
		if op := s.At(i); op != (Op{Kind: Write, Addr: uint64(i) << 6}) {
			t.Fatalf("op %d = %+v", i, op)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, Pack(sampleOps())); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Ops(), sampleOps()) {
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
		// 2^30-1 ops claimed, two present: decoding must fail at the
		// end of the data, not size a 9 GiB stream by the header.
		"count past data": append([]byte("SMTR1\n"), 0xff, 0xff, 0xff, 0xff, 0x03, 0x04, 0x30, 0x03, 0x04, 0x30),
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
		if err := WriteBinary(&buf, Pack(ops)); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got.Ops(), ops)
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
