package spill

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"io"
	"os"
	"unsafe"

	"hssort/internal/codes"
)

// RunReader streams a run file back one frame at a time. It implements
// merge.Source[K]: NextChunk returns each frame's keys in order and
// (nil, nil) at the final marker. The returned slice reuses the
// reader's decode buffers and is valid only until the next NextChunk —
// exactly the ownership discipline the exchange tail refill and
// merge.FromSources follow (a run is refilled only once the merge has
// consumed its previous chunk).
//
// Every frame is validated before any key is surfaced: header sanity
// caps, CRC-32C over the stored payload, inflate size limits, exact
// decoded length. A damaged or truncated file yields a *Error wrapping
// ErrCorrupt, never plausible-looking garbage keys.
type RunReader[K any] struct {
	m       *Manager
	path    string
	f       *os.File
	br      *bufio.Reader
	keySize int64
	delta   bool

	payBuf   []byte       // stored payload staging
	inf      bytes.Buffer // inflate output
	fr       io.ReadCloser
	keysBuf  []K
	codesBuf []codes.Code

	done   bool
	remove bool
}

// OpenRun opens a run file for streaming read-back. With removeOnEOF
// the file is deleted when the final marker is reached.
func OpenRun[K any](m *Manager, path string, removeOnEOF bool) (*RunReader[K], error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, &Error{Op: "open", Path: path, Err: err}
	}
	var zero K
	r := &RunReader[K]{
		m:       m,
		path:    path,
		f:       f,
		br:      bufio.NewReaderSize(f, 1<<16),
		keySize: int64(unsafe.Sizeof(zero)),
		delta:   isCodePlane[K](),
		remove:  removeOnEOF,
	}
	var magic [len(runMagic)]byte
	if _, err := io.ReadFull(r.br, magic[:]); err != nil {
		r.Close()
		return nil, corrupt("open", path, "missing magic: %v", err)
	}
	if string(magic[:]) != runMagic {
		r.Close()
		return nil, corrupt("open", path, "bad magic %q", magic[:])
	}
	return r, nil
}

// NextChunk implements merge.Source: it returns the next frame's keys,
// or (nil, nil) once the final marker is reached (at which point the
// file is closed and, if requested, removed).
func (r *RunReader[K]) NextChunk() ([]K, error) {
	if r.done {
		return nil, nil
	}
	var hdr [frameHeaderBytes]byte
	if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
		return nil, corrupt("read", r.path, "truncated frame header: %v", err)
	}
	payLen := binary.LittleEndian.Uint32(hdr[0:])
	keyCount := binary.LittleEndian.Uint32(hdr[4:])
	flags := hdr[8]
	crc := binary.LittleEndian.Uint32(hdr[9:])
	if flags&flagFinal != 0 {
		if payLen != 0 || keyCount != 0 || crc != frameCRC(hdr[:9], nil) {
			return nil, corrupt("read", r.path, "malformed final marker")
		}
		r.done = true
		if err := r.finishClose(); err != nil {
			return nil, err
		}
		return nil, nil
	}
	if payLen > maxFramePayload || keyCount == 0 || keyCount > maxFrameKeys {
		return nil, corrupt("read", r.path, "implausible frame header: payload=%d keys=%d", payLen, keyCount)
	}
	if cap(r.payBuf) < int(payLen) {
		r.payBuf = make([]byte, payLen)
	}
	r.payBuf = r.payBuf[:payLen]
	if _, err := io.ReadFull(r.br, r.payBuf); err != nil {
		return nil, corrupt("read", r.path, "truncated frame payload: %v", err)
	}
	if got := frameCRC(hdr[:9], r.payBuf); got != crc {
		return nil, corrupt("read", r.path, "frame checksum mismatch: got %08x want %08x", got, crc)
	}
	data := r.payBuf
	if flags&flagFlate != 0 {
		var err error
		if data, err = r.inflate(data, keyCount, flags); err != nil {
			return nil, err
		}
	}
	if flags&flagDelta != 0 {
		if !r.delta {
			return nil, corrupt("decode", r.path, "delta frame in a raw-record run")
		}
		cs, err := codes.DeltaDecode(r.codesBuf, data, int(keyCount))
		if err != nil {
			return nil, corrupt("decode", r.path, "%v", err)
		}
		r.codesBuf = cs
		r.m.noteRead()
		return any(cs).([]K), nil
	}
	if int64(len(data)) != int64(keyCount)*r.keySize {
		return nil, corrupt("decode", r.path, "raw frame is %d bytes for %d keys of %d bytes", len(data), keyCount, r.keySize)
	}
	if cap(r.keysBuf) < int(keyCount) {
		r.keysBuf = make([]K, keyCount)
	}
	r.keysBuf = r.keysBuf[:keyCount]
	copy(rawBytes(r.keysBuf), data)
	r.m.noteRead()
	return r.keysBuf, nil
}

// inflate decompresses a flate payload, bounding the output by what the
// frame header admits so a damaged stream cannot balloon memory.
func (r *RunReader[K]) inflate(stored []byte, keyCount uint32, flags byte) ([]byte, error) {
	limit := int64(keyCount) * r.keySize
	if flags&flagDelta != 0 {
		limit = int64(keyCount) * binary.MaxVarintLen64
	}
	src := bytes.NewReader(stored)
	if r.fr == nil {
		r.fr = flate.NewReader(src)
	} else if err := r.fr.(flate.Resetter).Reset(src, nil); err != nil {
		return nil, corrupt("decode", r.path, "flate reset: %v", err)
	}
	r.inf.Reset()
	n, err := r.inf.ReadFrom(io.LimitReader(r.fr, limit+1))
	if err != nil {
		return nil, corrupt("decode", r.path, "flate stream: %v", err)
	}
	if n > limit {
		return nil, corrupt("decode", r.path, "inflated frame exceeds %d bytes for %d keys", limit, keyCount)
	}
	return r.inf.Bytes(), nil
}

// finishClose closes (and optionally removes) the file after the final
// marker.
func (r *RunReader[K]) finishClose() error {
	var first error
	if r.f != nil {
		if err := r.f.Close(); err != nil {
			first = &Error{Op: "read", Path: r.path, Err: err}
		}
		r.f = nil
	}
	if r.remove {
		if err := os.Remove(r.path); err != nil && !os.IsNotExist(err) && first == nil {
			first = &Error{Op: "remove", Path: r.path, Err: err}
		}
		r.remove = false
	}
	return first
}

// Close releases the reader early (error paths, aborts). With
// removeOnEOF set the file is removed here too, so abandoned merges do
// not leak run files. Idempotent.
func (r *RunReader[K]) Close() error {
	r.done = true
	return r.finishClose()
}
