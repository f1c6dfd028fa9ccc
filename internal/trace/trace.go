// Package trace defines the memory-operation stream a workload feeds
// into the timing simulator: line-granular loads, stores and cache-line
// flushes, fences, compute delays, and transaction markers. It has one
// codec, the binary format cmd/supermem-trace records and replays; the
// text format (WriteText, one Op.String per line) is dump output only.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Kind enumerates operation types.
type Kind uint8

const (
	// Read loads the line at Addr.
	Read Kind = iota
	// Write stores into the line at Addr (write-allocate, dirty).
	Write
	// Flush is clwb: write the line at Addr back to NVM if dirty,
	// keeping it cached clean.
	Flush
	// Fence is sfence: order prior flushes before later operations.
	Fence
	// Compute stalls the core for Arg cycles of non-memory work.
	Compute
	// TxBegin marks the start of a durable transaction (for latency
	// accounting).
	TxBegin
	// TxEnd marks the end of a durable transaction.
	TxEnd
	// Reset marks the end of warmup: the simulator snapshots its
	// counters when every core has passed its Reset, so reported write
	// counts and cache statistics cover only the measured region.
	Reset
)

var kindNames = [...]string{"R", "W", "F", "SF", "C", "TB", "TE", "RS"}

// String returns a short mnemonic.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Op is one operation in a core's instruction stream.
type Op struct {
	Kind Kind
	// Addr is the byte address for Read/Write/Flush (the simulator
	// works on its line).
	Addr uint64
	// Arg is the cycle count for Compute; unused otherwise.
	Arg uint64
}

// String renders an op in the text trace format.
func (o Op) String() string {
	switch o.Kind {
	case Read, Write, Flush:
		return fmt.Sprintf("%s %#x", o.Kind, o.Addr)
	case Compute:
		return fmt.Sprintf("%s %d", o.Kind, o.Arg)
	default:
		return o.Kind.String()
	}
}

// Source supplies a core's op stream one operation at a time. Every
// run records a core's whole stream first (bench.BuildSources, or a
// trace file) and replays it through a SliceSource.
type Source interface {
	// Next returns the next op. ok is false when the stream ends.
	Next() (op Op, ok bool)
}

// SliceSource replays a fixed slice of ops.
type SliceSource struct {
	ops []Op
	i   int
}

// NewSliceSource wraps ops in a Source.
func NewSliceSource(ops []Op) *SliceSource { return &SliceSource{ops: ops} }

// Next implements Source.
func (s *SliceSource) Next() (Op, bool) {
	if s.i >= len(s.ops) {
		return Op{}, false
	}
	op := s.ops[s.i]
	s.i++
	return op, true
}

// Len returns the total number of ops.
func (s *SliceSource) Len() int { return len(s.ops) }

const binaryMagic = "SMTR1\n"

// WriteBinary encodes ops in the compact binary trace format.
func WriteBinary(w io.Writer, ops []Op) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putUvarint(uint64(len(ops))); err != nil {
		return err
	}
	for _, op := range ops {
		if err := bw.WriteByte(byte(op.Kind)); err != nil {
			return err
		}
		switch op.Kind {
		case Read, Write, Flush:
			if err := putUvarint(op.Addr); err != nil {
				return err
			}
		case Compute:
			if err := putUvarint(op.Arg); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadBinary decodes a binary trace.
func ReadBinary(r io.Reader) ([]Op, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading count: %w", err)
	}
	const maxOps = 1 << 30
	if n > maxOps {
		return nil, fmt.Errorf("trace: implausible op count %d", n)
	}
	ops := make([]Op, 0, n)
	for i := uint64(0); i < n; i++ {
		kb, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("trace: op %d: %w", i, err)
		}
		op := Op{Kind: Kind(kb)}
		if op.Kind > Reset {
			return nil, fmt.Errorf("trace: op %d: unknown kind %d", i, kb)
		}
		switch op.Kind {
		case Read, Write, Flush:
			if op.Addr, err = binary.ReadUvarint(br); err != nil {
				return nil, fmt.Errorf("trace: op %d addr: %w", i, err)
			}
		case Compute:
			if op.Arg, err = binary.ReadUvarint(br); err != nil {
				return nil, fmt.Errorf("trace: op %d arg: %w", i, err)
			}
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// WriteText writes ops one per line in their String form, for reading
// by eye; nothing parses it back.
func WriteText(w io.Writer, ops []Op) error {
	bw := bufio.NewWriter(w)
	for _, op := range ops {
		if _, err := fmt.Fprintln(bw, op); err != nil {
			return err
		}
	}
	return bw.Flush()
}
