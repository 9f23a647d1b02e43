package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"sync"
)

// The frame path (see DESIGN.md §3, "Frame path"): EncodeFrame
// appends the length prefix and the binary body into one pooled buffer
// so a frame is a single Write, and each connection reads through a
// FrameReader that reuses its scratch buffer. Transports coalesce the
// encoded frames of concurrent callers into one syscall
// (internal/transport).

// poolBufCap caps the capacity of buffers returned to the pools so a
// single huge frame (a bulk snapshot, a big group result) does not pin
// megabytes inside the pool forever.
const poolBufCap = 64 << 10

// FrameBuffer is a pooled, encoded frame: length prefix and body in
// one contiguous byte slice, ready for a single Write. Obtain with
// EncodeFrame, hand Bytes to the socket, then Release.
type FrameBuffer struct {
	buf []byte
}

// Bytes returns the full encoded frame (prefix + body).
func (f *FrameBuffer) Bytes() []byte { return f.buf }

// Len returns the encoded frame size in bytes.
func (f *FrameBuffer) Len() int { return len(f.buf) }

// Release returns the buffer to the encode pool. The caller must not
// touch Bytes afterwards.
func (f *FrameBuffer) Release() {
	if cap(f.buf) > poolBufCap {
		// Oversized one-off: let the GC have it instead of bloating
		// the pool.
		f.buf = nil
	}
	f.buf = f.buf[:0]
	framePool.Put(f)
}

var framePool = sync.Pool{New: func() any { return new(FrameBuffer) }}

// FrameReader decodes length-prefixed frames from one connection,
// reusing an internal scratch buffer between reads. Bind one
// FrameReader per connection; it is not safe for concurrent use.
type FrameReader struct {
	r       *bufio.Reader
	scratch []byte

	// Frames and Bytes count everything successfully read; the
	// transport layer feeds them into metrics.
	Frames int64
	Bytes  int64
}

// NewFrameReader creates a FrameReader over r. If r is already a
// *bufio.Reader it is used directly.
func NewFrameReader(r io.Reader) *FrameReader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 32<<10)
	}
	return &FrameReader{r: br}
}

// Read decodes the next frame. The returned Envelope does not alias
// the scratch buffer (the decoder copies what it keeps), so it remains
// valid across subsequent Reads. A body that is not a well-formed
// binary envelope fails with ErrBadV3Frame; the stream is then out of
// step and the caller should drop the connection.
func (fr *FrameReader) Read() (*Envelope, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	if cap(fr.scratch) < n {
		fr.scratch = make([]byte, n)
	}
	body := fr.scratch[:n]
	if _, err := io.ReadFull(fr.r, body); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, ErrShortFrame
		}
		return nil, err
	}
	if cap(fr.scratch) > poolBufCap {
		// Do not let one oversized frame pin its capacity for the
		// connection's lifetime: shrink back to the pool cap so
		// subsequent normal-sized reads are still allocation-free.
		// body keeps the old array alive until the decode below
		// copies what it needs.
		fr.scratch = make([]byte, poolBufCap)
	}
	env, err := decodeV3(body)
	if err != nil {
		return nil, err
	}
	fr.Frames++
	fr.Bytes += int64(4 + n)
	return env, nil
}
