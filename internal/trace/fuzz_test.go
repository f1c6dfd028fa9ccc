package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"slices"
	"testing"
)

// canonicalize zeroes the fields the codec does not carry for a kind, so
// constructed ops can be compared against a decode of their encoding.
func canonicalize(ops []Op) []Op {
	out := make([]Op, 0, len(ops))
	for _, op := range ops {
		switch op.Kind {
		case Read, Write, Flush:
			op.Arg = 0
		case Compute:
			op.Addr = 0
		default:
			op.Addr, op.Arg = 0, 0
		}
		out = append(out, op)
	}
	return out
}

// opsFromBytes deterministically builds an op stream from raw fuzz
// bytes: one kind byte, then eight little-endian payload bytes. The
// payload goes into Addr and its complement into Arg whatever the
// kind, so every op carries a field its canonical form drops.
func opsFromBytes(data []byte) []Op {
	var ops []Op
	for len(data) > 0 {
		op := Op{Kind: Kind(data[0] % (uint8(Reset) + 1))}
		data = data[1:]
		var v uint64
		for i := 0; i < 8 && len(data) > 0; i++ {
			v |= uint64(data[0]) << (8 * i)
			data = data[1:]
		}
		op.Addr, op.Arg = v, ^v
		ops = append(ops, op)
	}
	return ops
}

func encodeBinary(t testing.TB, s Stream) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := WriteBinary(&b, s); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	return b.Bytes()
}

// drain replays src to its end.
func drain(src Source) []Op {
	var ops []Op
	for op, ok := src.Next(); ok; op, ok = src.Next() {
		ops = append(ops, op)
	}
	return ops
}

// readBinaryOps is the SMTR1 decoder as it was before streams were
// packed: it decodes into unpacked ops. ReadBinary must accept and
// reject the same inputs and decode the same ops.
func readBinaryOps(r io.Reader) ([]Op, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, err
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("bad magic %q", magic)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n > 1<<30 {
		return nil, fmt.Errorf("implausible op count %d", n)
	}
	var ops []Op
	for i := uint64(0); i < n; i++ {
		kb, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		op := Op{Kind: Kind(kb)}
		if op.Kind > Reset {
			return nil, fmt.Errorf("unknown kind %d", kb)
		}
		switch op.Kind {
		case Read, Write, Flush:
			if op.Addr, err = binary.ReadUvarint(br); err != nil {
				return nil, err
			}
		case Compute:
			if op.Arg, err = binary.ReadUvarint(br); err != nil {
				return nil, err
			}
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// FuzzBinaryRoundTrip feeds arbitrary bytes to the binary decoder; any
// stream it accepts must re-encode to a decode-stable, byte-identical
// canonical form. Decoding straight into the packed form must agree
// with the unpacked reference decoder on what it accepts and on every
// op.
func FuzzBinaryRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(binaryMagic))
	f.Add([]byte(binaryMagic + "\x00"))
	f.Add([]byte(binaryMagic + "\x03\x01\x40\x03\x04\x05")) // W 0x40, SF, C 5
	f.Add([]byte(binaryMagic + "\x02\x05\x06"))             // TB, TE
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, err := ReadBinary(bytes.NewReader(data))
		ref, refErr := readBinaryOps(bytes.NewReader(data))
		if (err == nil) != (refErr == nil) {
			t.Fatalf("ReadBinary error %v, reference decoder error %v", err, refErr)
		}
		if err != nil {
			return // rejected input: nothing to round-trip
		}
		if !slices.Equal(ops.Ops(), ref) {
			t.Fatalf("packed decode differs from the reference:\n%v\n%v", ops.Ops(), ref)
		}
		enc := encodeBinary(t, ops)
		ops2, err := ReadBinary(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("decoding our own encoding: %v", err)
		}
		if !reflect.DeepEqual(ops, ops2) {
			t.Fatalf("binary round trip changed ops:\n%v\n%v", ops, ops2)
		}
		if enc2 := encodeBinary(t, ops2); !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not a fixed point:\n%x\n%x", enc, enc2)
		}
	})
}

// FuzzOpsEncodeRoundTrip goes the other way: arbitrary op streams,
// packed by a Builder or by Pack, must replay as their canonical form
// and survive the binary codec unchanged.
func FuzzOpsEncodeRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{7, 4, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := opsFromBytes(data)
		want := canonicalize(ops)

		var b Builder
		for _, op := range ops {
			b.Append(op)
		}
		s := b.Stream()
		if !reflect.DeepEqual(s, Pack(ops)) {
			t.Fatalf("Builder and Pack disagree on %v", ops)
		}
		if got := drain(s.Source()); !slices.Equal(got, want) {
			t.Fatalf("replay of the packed stream:\n%v\nwant %v", got, want)
		}
		got, err := ReadBinary(bytes.NewReader(encodeBinary(t, s)))
		if err != nil {
			t.Fatalf("ReadBinary: %v", err)
		}
		if !slices.Equal(got.Ops(), want) {
			t.Fatalf("binary encode/decode changed ops:\n%v\n%v", want, got.Ops())
		}
	})
}
