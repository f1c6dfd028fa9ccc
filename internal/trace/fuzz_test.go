package trace

import (
	"bytes"
	"reflect"
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
// bytes: one kind byte, then eight little-endian payload bytes.
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
		switch op.Kind {
		case Read, Write, Flush:
			op.Addr = v
		case Compute:
			op.Arg = v
		}
		ops = append(ops, op)
	}
	return ops
}

func encodeBinary(t testing.TB, ops []Op) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := WriteBinary(&b, ops); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	return b.Bytes()
}

// FuzzBinaryRoundTrip feeds arbitrary bytes to the binary decoder; any
// stream it accepts must re-encode to a decode-stable, byte-identical
// canonical form.
func FuzzBinaryRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(binaryMagic))
	f.Add([]byte(binaryMagic + "\x00"))
	f.Add([]byte(binaryMagic + "\x03\x01\x40\x03\x04\x05")) // W 0x40, SF, C 5
	f.Add([]byte(binaryMagic + "\x02\x05\x06"))             // TB, TE
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return // rejected input: nothing to round-trip
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

// FuzzOpsEncodeRoundTrip goes the other way: arbitrary op streams must
// survive the binary codec unchanged (up to the fields it carries).
func FuzzOpsEncodeRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{7, 4, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := canonicalize(opsFromBytes(data))

		got, err := ReadBinary(bytes.NewReader(encodeBinary(t, ops)))
		if err != nil {
			t.Fatalf("ReadBinary: %v", err)
		}
		if len(ops) != 0 && !reflect.DeepEqual(ops, got) {
			t.Fatalf("binary encode/decode changed ops:\n%v\n%v", ops, got)
		}
	})
}
