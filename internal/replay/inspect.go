package replay

// Log inspection: Stat walks a CHIMLOG2 stream chunk by chunk through the
// replay cursor — which verifies every header, CRC and record — and
// reports the per-stream breakdown (chunks, records, raw vs compressed
// bytes) without materializing the log. It is the engine behind
// cmd/logstat.

import "io"

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

// Stat reads a chunked log from r and returns its breakdown. It reads
// through the same cursor as ReadLog and the replayer, so every chunk is
// CRC-verified and decompressed, and every record decoded: a nil error
// also certifies the stream is well-formed end to end.
func Stat(r io.Reader) (*LogInfo, error) {
	info := &LogInfo{
		TotalBytes:   int64(len(logMagic)) + chunkHeaderLen, // magic and end marker
		OrderByClass: make(map[string]int64),
		OrderByKind:  make(map[string]int64),
	}
	cur := newLogCursor(r)
	cur.onChunk = func(ci ChunkInfo) {
		s := &info.Input
		if ci.Kind == "order" {
			s = &info.Order
		}
		s.Chunks++
		s.RawBytes += ci.RawBytes
		s.CompressedBytes += ci.CompressedBytes
		s.WireBytes += ci.CompressedBytes + chunkHeaderLen
		info.TotalBytes += ci.CompressedBytes + chunkHeaderLen
		info.Chunks = append(info.Chunks, ci)
	}
	err := cur.forEach(func(rec streamRecord) {
		info.Chunks[len(info.Chunks)-1].Records++
		if rec.isInput {
			info.Input.Records++
			return
		}
		info.Order.Records++
		info.OrderByClass[rec.key.Class.String()]++
		info.OrderByKind[rec.order.Kind.String()]++
	})
	if err != nil {
		return nil, err
	}
	return info, nil
}
