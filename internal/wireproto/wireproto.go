// Package wireproto is the fleet's length-prefixed, versioned binary
// framing: the protocol hydra-ingestd speaks to its engine workers and
// the workers speak to the central aggregator.
//
// Every frame is
//
//	magic (4B, "HYWP") | version (1B) | type (1B) | payload length (4B, BE)
//	| payload | CRC32-IEEE (4B, BE, over everything before it)
//
// The reader validates magic, version, length bound, and checksum
// before the payload is interpreted, so a corrupt or foreign byte
// stream fails at the framing layer with a typed error instead of
// poisoning a decoder. Payloads are read into pooled buffers sized to
// the frame (Frame.Release returns them), and the hot-path payload —
// the packet batch — has a fixed little-endian binary codec that
// decodes by reslicing, no per-packet allocation; the firewall seed,
// tens of thousands of pairs the worker must hold before it checks a
// session's first packet, shares its style. The other control payloads
// (hello, summaries, aggregates, the fin ack) are JSON inside the same
// framing. Most run once per connection or session; an aggregate
// batch runs once per report-bus window (5 ms in the benchmark's fleet
// session), and decoding it is ≈ 5 % of a session's CPU. It stays JSON
// because bench/'s ladder stage fleet.agg writes JSON aggregate frames.
package wireproto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// Frame types. The framing layer treats the type as opaque; these
// constants are the fleet's assignment.
const (
	// TypeHello opens every connection: JSON Hello payload.
	TypeHello = byte(iota + 1)
	// TypeSeed carries a chunk of firewall seed pairs: binary (see
	// AppendSeed / DecodeSeed).
	TypeSeed
	// TypePacketBatch is the hot path: binary packet batch (see
	// AppendPacketBatch / BatchDecoder).
	TypePacketBatch
	// TypeCredit is the worker's flow-control grant: binary, one uint32
	// count of processed batch frames.
	TypeCredit
	// TypeAggBatch federates closed-window aggregates upstream: JSON.
	TypeAggBatch
	// Type 6 is reserved (a retired worker snapshot): the empty slot
	// keeps the bytes of the types after it.
	_
	// TypeSummary is a worker's end-of-session ledger: JSON.
	TypeSummary
	// TypeFin asks the worker to finish its stream; no payload.
	TypeFin
	// TypeFinAck confirms a drained worker: JSON.
	TypeFinAck
)

const (
	// Version is the protocol version this build speaks. A reader
	// rejects frames from any other version. 2: TypeSeed went binary.
	Version = 2

	headerLen  = 10
	trailerLen = 4

	// DefaultMaxPayload bounds frames a Reader will accept unless
	// configured otherwise. Seed chunks and aggregate batches stay far
	// below it by construction.
	DefaultMaxPayload = 4 << 20
)

var magic = [4]byte{'H', 'Y', 'W', 'P'}

// Typed framing errors, wrapped with detail by the reader.
var (
	ErrBadMagic   = errors.New("wireproto: bad magic")
	ErrBadVersion = errors.New("wireproto: unsupported version")
	ErrOversized  = errors.New("wireproto: frame exceeds payload bound")
	ErrChecksum   = errors.New("wireproto: checksum mismatch")
	ErrTruncated  = errors.New("wireproto: truncated frame")
)

// bufPool recycles payload buffers across frames; Frame.Release feeds
// it. Buffers grow to the largest frame seen and are reused as-is.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// Frame is one decoded frame. Payload aliases a pooled buffer: call
// Release once the payload is no longer referenced.
type Frame struct {
	Type    byte
	Payload []byte
	buf     *[]byte
}

// Release returns the payload buffer to the pool. The Frame must not
// be used afterwards. Safe on the zero Frame.
func (f *Frame) Release() {
	if f.buf != nil {
		bufPool.Put(f.buf)
		f.buf = nil
		f.Payload = nil
	}
}

// Writer frames payloads onto w. Not safe for concurrent use.
type Writer struct {
	w   io.Writer
	hdr [headerLen]byte
	tr  [trailerLen]byte
}

// NewWriter builds a frame writer over w.
func NewWriter(w io.Writer) *Writer {
	nw := &Writer{w: w}
	copy(nw.hdr[:4], magic[:])
	nw.hdr[4] = Version
	return nw
}

// WriteFrame emits one frame of the given type.
func (w *Writer) WriteFrame(typ byte, payload []byte) error {
	w.hdr[5] = typ
	binary.BigEndian.PutUint32(w.hdr[6:], uint32(len(payload)))
	crc := crc32.ChecksumIEEE(w.hdr[:])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	binary.BigEndian.PutUint32(w.tr[:], crc)
	if _, err := w.w.Write(w.hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.w.Write(payload); err != nil {
			return err
		}
	}
	_, err := w.w.Write(w.tr[:])
	return err
}

// Reader decodes frames from r.
type Reader struct {
	r io.Reader
	// MaxPayload overrides DefaultMaxPayload when > 0.
	MaxPayload int
	hdr        [headerLen]byte
}

// NewReader builds a frame reader over r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// ReadFrame reads and validates the next frame. io.EOF is returned
// only at a clean frame boundary; a partial frame is ErrTruncated.
func (r *Reader) ReadFrame() (Frame, error) {
	if _, err := io.ReadFull(r.r, r.hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return Frame{}, fmt.Errorf("%w: partial header", ErrTruncated)
		}
		return Frame{}, err
	}
	if [4]byte(r.hdr[:4]) != magic {
		return Frame{}, fmt.Errorf("%w: %x", ErrBadMagic, r.hdr[:4])
	}
	if r.hdr[4] != Version {
		return Frame{}, fmt.Errorf("%w: got %d, want %d", ErrBadVersion, r.hdr[4], Version)
	}
	n := binary.BigEndian.Uint32(r.hdr[6:])
	maxPayload := r.MaxPayload
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	if n > uint32(maxPayload) {
		return Frame{}, fmt.Errorf("%w: %d > %d", ErrOversized, n, maxPayload)
	}
	bp := bufPool.Get().(*[]byte)
	need := int(n) + trailerLen
	if cap(*bp) < need {
		*bp = make([]byte, need)
	}
	buf := (*bp)[:need]
	if _, err := io.ReadFull(r.r, buf); err != nil {
		bufPool.Put(bp)
		return Frame{}, fmt.Errorf("%w: partial payload (%v)", ErrTruncated, err)
	}
	crc := crc32.ChecksumIEEE(r.hdr[:])
	crc = crc32.Update(crc, crc32.IEEETable, buf[:n])
	if got := binary.BigEndian.Uint32(buf[n:]); got != crc {
		bufPool.Put(bp)
		return Frame{}, fmt.Errorf("%w: got %08x, want %08x", ErrChecksum, got, crc)
	}
	return Frame{Type: r.hdr[5], Payload: buf[:n], buf: bp}, nil
}
