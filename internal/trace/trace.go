// Package trace defines the memory-operation stream a workload feeds
// into the timing simulator: line-granular loads, stores and cache-line
// flushes, fences, compute delays, and transaction markers. A recorded
// stream is held packed (Stream, 9 bytes per op) from recording to
// replay; Op is the unpacked form a Source hands the simulator. It has
// one codec, the binary format cmd/supermem-trace records and replays;
// the text format (WriteText, one Op.String per line) is dump output
// only.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"supermem/internal/arena"
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

// rec is one packed op: its kind and one little-endian 64-bit word,
// which is the address of a Read, Write or Flush, the cycle count of a
// Compute, and zero otherwise. Its fields are bytes, so it is 9 bytes
// with no padding: exactly what an SMTR1 record carries.
type rec struct {
	kind Kind
	word [8]byte
}

// hasWord reports whether ops of kind k carry a word.
func hasWord(k Kind) bool { return k <= Flush || k == Compute }

// pack stores op's canonical form: the field its kind carries, and
// nothing else.
func pack(op Op) rec {
	r := rec{kind: op.Kind}
	switch op.Kind {
	case Read, Write, Flush:
		binary.LittleEndian.PutUint64(r.word[:], op.Addr)
	case Compute:
		binary.LittleEndian.PutUint64(r.word[:], op.Arg)
	}
	return r
}

// w returns r's word.
func (r *rec) w() uint64 { return binary.LittleEndian.Uint64(r.word[:]) }

// op unpacks r.
func (r *rec) op() Op {
	w := r.w()
	if r.kind == Compute {
		return Op{Kind: Compute, Arg: w}
	}
	return Op{Kind: r.kind, Addr: w}
}

// Stream is a recorded op stream, packed at 9 bytes per op. It holds
// each op's canonical form: an Arg on a Read, Write or Flush, or an
// Addr on any other kind, is dropped, as the SMTR1 codec drops it. The
// timing model reads neither. A Builder records one, Pack converts
// hand-built ops, and ReadBinary decodes one; replay reads it through
// a SliceSource, so any number of replays share one stream.
type Stream []rec

// Pack packs ops into an exact-size stream.
func Pack(ops []Op) Stream {
	s := make(Stream, len(ops))
	for i, op := range ops {
		s[i] = pack(op)
	}
	return s
}

// At returns op i.
func (s Stream) At(i int) Op { return s[i].op() }

// Ops unpacks the stream, for tests and inspection; replay reads the
// packed form through Source.
func (s Stream) Ops() []Op {
	ops := make([]Op, len(s))
	for i := range s {
		ops[i] = s[i].op()
	}
	return ops
}

// Source returns a fresh replay cursor over the stream.
func (s Stream) Source() *SliceSource { return &SliceSource{ops: s} }

// Builder records an op stream. It appends into fixed-size chunks, so
// a recording of millions of ops writes each op once and never copies
// what it already holds; Stream then copies it out once, exactly sized.
type Builder struct {
	chunks arena.Chunks[rec]
}

// Append records op's canonical form.
func (b *Builder) Append(op Op) { b.chunks.Append(pack(op)) }

// Stream returns the recorded ops as one exact-size stream.
func (b *Builder) Stream() Stream { return b.chunks.Flatten() }

// SliceSource replays a Stream.
type SliceSource struct {
	ops Stream
	i   int
}

// NewSliceSource packs hand-built ops and replays them.
func NewSliceSource(ops []Op) *SliceSource { return Pack(ops).Source() }

// Next implements Source. It returns each op's canonical form.
func (s *SliceSource) Next() (Op, bool) {
	if s.i >= len(s.ops) {
		return Op{}, false
	}
	op := s.ops[s.i].op()
	s.i++
	return op, true
}

// Len returns the total number of ops.
func (s *SliceSource) Len() int { return len(s.ops) }

const binaryMagic = "SMTR1\n"

// WriteBinary encodes s in the compact binary trace format: the op
// count, then each op's kind byte followed, for the kinds that carry
// one, by its word as a uvarint.
func WriteBinary(w io.Writer, s Stream) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	if _, err := bw.Write(binary.AppendUvarint(buf[:0], uint64(len(s)))); err != nil {
		return err
	}
	for i := range s {
		r := &s[i]
		if err := bw.WriteByte(byte(r.kind)); err != nil {
			return err
		}
		if hasWord(r.kind) {
			if _, err := bw.Write(binary.AppendUvarint(buf[:0], r.w())); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadBinary decodes a binary trace straight into an exact-size
// stream. It sizes nothing by the header's op count, which a short or
// corrupt file can overstate by gigabytes; the ops it reads go into a
// Builder.
func ReadBinary(r io.Reader) (Stream, error) {
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
	var b Builder
	for i := uint64(0); i < n; i++ {
		kb, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("trace: op %d: %w", i, err)
		}
		k := Kind(kb)
		if k > Reset {
			return nil, fmt.Errorf("trace: op %d: unknown kind %d", i, kb)
		}
		r := rec{kind: k}
		if hasWord(k) {
			w, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("trace: op %d (%v) word: %w", i, k, err)
			}
			binary.LittleEndian.PutUint64(r.word[:], w)
		}
		b.chunks.Append(r)
	}
	return b.Stream(), nil
}

// WriteText writes s one op per line in its String form, for reading
// by eye; nothing parses it back.
func WriteText(w io.Writer, s Stream) error {
	bw := bufio.NewWriter(w)
	for i := range s {
		if _, err := fmt.Fprintln(bw, s.At(i)); err != nil {
			return err
		}
	}
	return bw.Flush()
}
