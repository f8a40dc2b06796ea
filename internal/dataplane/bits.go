package dataplane

import "fmt"

// BitWriter packs values of arbitrary bit widths into a byte slice,
// MSB-first, the layout P4 deparsers emit. The telemetry codec uses it
// for the packed encoding of tele variables.
type BitWriter struct {
	buf  []byte
	nbit int // bits written so far
}

// NewBitWriter returns an empty writer.
func NewBitWriter() *BitWriter { return &BitWriter{} }

// WriteBits appends the low `width` bits of v, MSB-first. Byte-aligned
// writes of whole bytes take a fast path; the general path packs bit by
// bit.
func (w *BitWriter) WriteBits(v uint64, width int) {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("dataplane: bad bit width %d", width))
	}
	if w.nbit%8 == 0 && width%8 == 0 {
		for i := width - 8; i >= 0; i -= 8 {
			w.buf = append(w.buf, byte(v>>uint(i)))
		}
		w.nbit += width
		return
	}
	for i := width - 1; i >= 0; i-- {
		if w.nbit%8 == 0 {
			w.buf = append(w.buf, 0)
		}
		bit := byte(v>>uint(i)) & 1
		w.buf[w.nbit/8] |= bit << uint(7-w.nbit%8)
		w.nbit++
	}
}

// Grow pre-allocates capacity for n more bits.
func (w *BitWriter) Grow(nbits int) {
	need := (w.nbit+nbits+7)/8 - len(w.buf)
	if need <= 0 {
		return
	}
	if cap(w.buf)-len(w.buf) < need {
		buf := make([]byte, len(w.buf), len(w.buf)+need)
		copy(buf, w.buf)
		w.buf = buf
	}
}

// Align pads with zero bits to the next byte boundary.
func (w *BitWriter) Align() {
	for w.nbit%8 != 0 {
		w.WriteBits(0, 1)
	}
}

// Bytes returns the packed buffer (padded to a whole byte).
func (w *BitWriter) Bytes() []byte {
	w.Align()
	return w.buf
}

// BitReader reads values of arbitrary bit widths from a byte slice,
// MSB-first, mirroring BitWriter.
type BitReader struct {
	buf  []byte
	nbit int
}

// NewBitReader returns a reader over buf.
func NewBitReader(buf []byte) *BitReader { return &BitReader{buf: buf} }

// ReadBits consumes `width` bits and returns them right-aligned.
func (r *BitReader) ReadBits(width int) (uint64, error) {
	if width < 0 || width > 64 {
		return 0, fmt.Errorf("dataplane: bad bit width %d", width)
	}
	if r.nbit+width > len(r.buf)*8 {
		return 0, fmt.Errorf("dataplane: bit read past end: need %d bits, have %d", width, len(r.buf)*8-r.nbit)
	}
	var v uint64
	if r.nbit%8 == 0 && width%8 == 0 {
		for i := 0; i < width; i += 8 {
			v = v<<8 | uint64(r.buf[r.nbit/8])
			r.nbit += 8
		}
		return v, nil
	}
	for i := 0; i < width; i++ {
		bit := r.buf[r.nbit/8] >> uint(7-r.nbit%8) & 1
		v = v<<1 | uint64(bit)
		r.nbit++
	}
	return v, nil
}

// Align skips to the next byte boundary.
func (r *BitReader) Align() {
	if rem := r.nbit % 8; rem != 0 {
		r.nbit += 8 - rem
	}
}
