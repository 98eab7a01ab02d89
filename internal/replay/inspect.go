package replay

// Log inspection: Stat walks a CHIMLOG2 stream chunk by chunk — verifying
// every header, CRC and payload exactly like the replay cursor would —
// and reports the per-stream breakdown (chunks, records, raw vs
// compressed bytes) without materializing the log. It is the engine
// behind cmd/logstat.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// ChunkInfo describes one chunk of a log stream.
type ChunkInfo struct {
	Kind            string // "input" or "order"
	Records         int64
	RawBytes        int64 // uncompressed payload length (ulen)
	CompressedBytes int64 // compressed payload length (clen), excluding the 13-byte header
	CRC             uint32
}

// StreamInfo aggregates one stream's chunks.
type StreamInfo struct {
	Chunks          int64
	Records         int64
	RawBytes        int64
	CompressedBytes int64 // payload bytes only
	WireBytes       int64 // payload + 13-byte chunk headers (matches LogWriter's byte counters)
}

// LogInfo is the full breakdown of one CHIMLOG2 stream.
type LogInfo struct {
	// TotalBytes is the whole stream: magic, chunks with headers, and the
	// end marker.
	TotalBytes int64

	Input StreamInfo
	Order StreamInfo

	// OrderByClass counts order records per sync class name
	// ("mutex", "barrier", "cond", "weaklock", "spawn").
	OrderByClass map[string]int64

	// OrderByKind counts order records per event kind name
	// ("acq", "wlacq", "wlforce", ...).
	OrderByKind map[string]int64

	// Chunks lists every chunk in stream order.
	Chunks []ChunkInfo
}

// Ratio returns the stream's compression ratio (raw over wire bytes), or
// zero for an empty stream.
func (s StreamInfo) Ratio() float64 {
	if s.WireBytes == 0 {
		return 0
	}
	return float64(s.RawBytes) / float64(s.WireBytes)
}

// Stat reads a chunked log from r and returns its breakdown. Every chunk
// is CRC-verified and decompressed, and every record decoded, so a nil
// error also certifies the stream is well-formed end to end.
func Stat(r io.Reader) (*LogInfo, error) {
	cr := &countingReader{r: r}
	info := &LogInfo{
		OrderByClass: make(map[string]int64),
		OrderByKind:  make(map[string]int64),
	}
	magic := make([]byte, len(logMagic))
	if _, err := io.ReadFull(cr, magic); err != nil || !bytes.Equal(magic, logMagic) {
		return nil, fmt.Errorf("replay: not a chimera log")
	}
	for {
		var hdr [13]byte
		if _, err := io.ReadFull(cr, hdr[:]); err != nil {
			return nil, fmt.Errorf("replay: truncated log (chunk header): %w", err)
		}
		kind := hdr[0]
		ulen := binary.LittleEndian.Uint32(hdr[1:5])
		clen := binary.LittleEndian.Uint32(hdr[5:9])
		crc := binary.LittleEndian.Uint32(hdr[9:13])
		if kind == chunkEnd {
			if ulen != 0 || clen != 0 || crc != 0 {
				return nil, fmt.Errorf("replay: corrupt end marker")
			}
			var b [1]byte
			if n, _ := cr.Read(b[:]); n != 0 {
				return nil, fmt.Errorf("replay: trailing garbage after log end")
			}
			info.TotalBytes = cr.n
			return info, nil
		}
		if kind != chunkInput && kind != chunkOrder {
			return nil, fmt.Errorf("replay: unknown chunk kind %d", kind)
		}
		if ulen == 0 || ulen > maxChunkLen || ulen%8 != 0 || clen == 0 || clen > maxChunkLen {
			return nil, fmt.Errorf("replay: corrupt chunk header (ulen=%d clen=%d)", ulen, clen)
		}
		comp := make([]byte, clen)
		if _, err := io.ReadFull(cr, comp); err != nil {
			return nil, fmt.Errorf("replay: truncated chunk: %w", err)
		}
		if got := crc32.ChecksumIEEE(comp); got != crc {
			return nil, fmt.Errorf("replay: chunk CRC mismatch (got %08x, want %08x)", got, crc)
		}
		raw, err := gunzipChunk(comp, ulen)
		if err != nil {
			return nil, err
		}
		ci := ChunkInfo{RawBytes: int64(ulen), CompressedBytes: int64(clen), CRC: crc}
		wr := &wordReader{buf: raw}
		switch kind {
		case chunkInput:
			ci.Kind = "input"
			for len(wr.buf) > 0 {
				wr.next() // tid
				wr.next() // op
				wr.next() // val
				dn := wr.next()
				if wr.err != nil {
					return nil, fmt.Errorf("replay: truncated input record")
				}
				if dn < 0 || dn > wr.remaining() {
					return nil, fmt.Errorf("replay: corrupt input record (data length %d, %d words remain)", dn, wr.remaining())
				}
				for k := int64(0); k < dn; k++ {
					wr.next()
				}
				ci.Records++
			}
			info.Input.Chunks++
			info.Input.Records += ci.Records
			info.Input.RawBytes += ci.RawBytes
			info.Input.CompressedBytes += ci.CompressedBytes
			info.Input.WireBytes += ci.CompressedBytes + int64(len(hdr))
		case chunkOrder:
			ci.Kind = "order"
			for len(wr.buf) > 0 {
				key, err := decodeSyncKey(wr)
				if err != nil {
					return nil, err
				}
				rec, err := decodeOrderRec(wr)
				if err != nil {
					return nil, err
				}
				if wr.err != nil {
					return nil, fmt.Errorf("replay: truncated order record")
				}
				info.OrderByClass[key.Class.String()]++
				info.OrderByKind[rec.Kind.String()]++
				ci.Records++
			}
			info.Order.Chunks++
			info.Order.Records += ci.Records
			info.Order.RawBytes += ci.RawBytes
			info.Order.CompressedBytes += ci.CompressedBytes
			info.Order.WireBytes += ci.CompressedBytes + int64(len(hdr))
		}
		info.Chunks = append(info.Chunks, ci)
	}
}

// gunzipChunk decompresses one verified chunk payload, enforcing the
// declared uncompressed length.
func gunzipChunk(comp []byte, ulen uint32) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(comp))
	if err != nil {
		return nil, fmt.Errorf("replay: bad chunk stream: %w", err)
	}
	rbuf := bytes.NewBuffer(make([]byte, 0, ulen))
	if _, err := io.Copy(rbuf, io.LimitReader(zr, int64(ulen)+1)); err != nil {
		return nil, fmt.Errorf("replay: bad chunk stream: %w", err)
	}
	if err := zr.Close(); err != nil {
		return nil, fmt.Errorf("replay: bad chunk stream: %w", err)
	}
	if rbuf.Len() != int(ulen) {
		return nil, fmt.Errorf("replay: chunk length mismatch (got %d, want %d)", rbuf.Len(), ulen)
	}
	return rbuf.Bytes(), nil
}

type countingReader struct {
	r io.Reader
	n int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}
