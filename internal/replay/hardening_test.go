package replay

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"hash/crc32"
	"math"
	"strings"
	"testing"

	"repro/internal/vm"
)

func words(vs ...int64) []byte {
	var buf bytes.Buffer
	for _, v := range vs {
		binary.Write(&buf, binary.LittleEndian, v)
	}
	return buf.Bytes()
}

// chunkStream hand-builds a CHIMLOG2 stream holding one chunk of the given
// kind whose payload is exactly payload, with a correct header and CRC, so
// record-level validation is reached whatever the payload says.
func chunkStream(kind byte, payload []byte) []byte {
	var comp bytes.Buffer
	zw := gzip.NewWriter(&comp)
	zw.Write(payload)
	zw.Close()
	var hdr [chunkHeaderLen]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[5:9], uint32(comp.Len()))
	binary.LittleEndian.PutUint32(hdr[9:13], crc32.ChecksumIEEE(comp.Bytes()))
	out := append(append([]byte{}, logMagic...), hdr[:]...)
	out = append(out, comp.Bytes()...)
	end := [chunkHeaderLen]byte{chunkEnd}
	return append(out, end[:]...)
}

// rejectEverywhere requires ReadLog and Stat both to reject stream with an
// error naming want.
func rejectEverywhere(t *testing.T, name string, stream []byte, want string) {
	t.Helper()
	if _, err := ReadLog(bytes.NewReader(stream)); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("%s: ReadLog err = %v, want one naming %q", name, err, want)
	}
	if _, err := Stat(bytes.NewReader(stream)); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("%s: Stat err = %v, want one naming %q", name, err, want)
	}
}

// TestDecodeInputBoundsRegression pins the input-record data length check
// on a well-formed chunk: a length past the words left in the chunk must
// fail cleanly up front (before allocating), through both readers.
func TestDecodeInputBoundsRegression(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload []byte
		want    string
	}{
		{"data length past chunk end", words(0, 1, 2, 20), "data length 20"},
		{"second record past chunk end", words(0, 1, 2, 1, 5, 0, 1, 2, 5), "data length 5"},
		{"negative data length", words(0, 1, 2, -3), "data length -3"},
		{"truncated record", words(0, 1, 2), "truncated input record"},
	} {
		rejectEverywhere(t, tc.name, chunkStream(chunkInput, tc.payload), tc.want)
	}

	// Boundary: a data length of exactly the words left is valid.
	good := chunkStream(chunkInput, words(0, 1, 2, 2, 11, 22))
	l, err := ReadLog(bytes.NewReader(good))
	if err != nil {
		t.Fatalf("data length == remaining words must decode: %v", err)
	}
	if got := l.Inputs[0][0].Data; len(got) != 2 || got[0] != 11 || got[1] != 22 {
		t.Fatalf("boundary decode wrong: %v", got)
	}
	if info, err := Stat(bytes.NewReader(good)); err != nil || info.Input.Records != 1 {
		t.Fatalf("Stat of boundary record: %+v, %v", info, err)
	}
}

// TestDecodeOrderValidation checks record-level validation of order
// chunks: unknown sync classes, hook-only event kinds, tids that do not
// fit an int32, and records cut off by the chunk end never decode.
func TestDecodeOrderValidation(t *testing.T) {
	mutex := int64(vm.SyncMutex)
	for _, tc := range []struct {
		name    string
		payload []byte
		want    string
	}{
		{"sync class out of range", words(99, 0, 0), "sync class 99"},
		{"negative sync class", words(-1, 0, 0), "sync class -1"},
		{"kind above EvWLForcedRelease", words(mutex, 7, 1<<8|int64(vm.EvWLForcedRelease+1)), "event kind"},
		{"hook-only kind", words(mutex, 7, int64(vm.EvJoin)), "event kind"},
		{"tid above MaxInt32", words(mutex, 7, (math.MaxInt32+1)<<8|int64(vm.EvAcquire)), "out of range"},
		{"negative tid", words(mutex, 7, -1<<8|int64(vm.EvAcquire)), "out of range"},
		{"truncated record", words(mutex, 7), "truncated order record"},
		{"forced release without anchor", words(int64(vm.SyncWeakLock), 5, 1<<8|int64(vm.EvWLForcedRelease), 100), "truncated order record"},
	} {
		rejectEverywhere(t, tc.name, chunkStream(chunkOrder, tc.payload), tc.want)
	}

	// The largest valid tid decodes unchanged.
	good := chunkStream(chunkOrder, words(mutex, 7, math.MaxInt32<<8|int64(vm.EvAcquire)))
	l, err := ReadLog(bytes.NewReader(good))
	if err != nil {
		t.Fatalf("tid MaxInt32 must decode: %v", err)
	}
	if got := l.Orders[vm.SyncKey{Class: vm.SyncMutex, ID: 7}]; len(got) != 1 || got[0].Tid != math.MaxInt32 {
		t.Fatalf("tid MaxInt32 decoded as %+v", got)
	}
}

// TestLogWriterCounters checks the per-stream compressed byte attribution:
// both counters populate when both streams carry records, and together
// they account for every byte except the magic and end marker.
func TestLogWriterCounters(t *testing.T) {
	var buf bytes.Buffer
	lw := NewLogWriter(&buf)
	lw.Input(0, InputRec{Op: 1, Val: 2, Data: []int64{3, 4}})
	lw.Order(vm.SyncKey{Class: vm.SyncMutex, ID: 9}, OrderRec{Tid: 1, Kind: vm.EvAcquire})
	if err := lw.Close(); err != nil {
		t.Fatal(err)
	}
	if lw.InputBytesWritten() <= 0 || lw.OrderBytesWritten() <= 0 {
		t.Fatalf("counters not populated: in=%d ord=%d",
			lw.InputBytesWritten(), lw.OrderBytesWritten())
	}
	if want := int64(buf.Len()) - 8 - 13; lw.InputBytesWritten()+lw.OrderBytesWritten() != want {
		t.Fatalf("counter sum %d != stream minus framing %d",
			lw.InputBytesWritten()+lw.OrderBytesWritten(), want)
	}
}

// TestChunkCorruptionDetected flips single bytes across an encoded log and
// requires every corruption either to be detected or to decode to the
// identical log (a flip inside gzip padding can be inert) — never a
// silently different log, never a panic.
func TestChunkCorruptionDetected(t *testing.T) {
	l := sampleLog()
	var buf bytes.Buffer
	if _, err := l.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()
	for i := range orig {
		mut := append([]byte{}, orig...)
		mut[i] ^= 0x40
		got, err := ReadLog(bytes.NewReader(mut))
		if err == nil && !logsEqual(l, got) {
			t.Fatalf("byte %d flip silently accepted as a different log", i)
		}
	}

	// Truncations at every length must error.
	for n := 0; n < len(orig); n++ {
		if _, err := ReadLog(bytes.NewReader(orig[:n])); err == nil {
			t.Fatalf("truncation to %d bytes must be rejected", n)
		}
	}

	// Trailing garbage after the end marker must error.
	if _, err := ReadLog(bytes.NewReader(append(append([]byte{}, orig...), 0))); err == nil {
		t.Fatalf("trailing garbage after end marker must be rejected")
	}
}
