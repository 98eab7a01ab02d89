package replay

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/minic/parser"
	"repro/internal/minic/types"
	"repro/internal/oskit"
	"repro/internal/vm"
)

// realLog records an actual concurrent run with input operations, so the
// fuzz corpora are seeded with genuinely-shaped logs rather than only
// hand-built ones.
func realLog(f *testing.F) *Log {
	f.Helper()
	src := `
int m;
int g;
void worker(int n) {
    for (int i = 0; i < 5; i++) {
        lock(&m);
        g = g + rnd(10);
        unlock(&m);
    }
}
int main(void) {
    int fd = open(5);
    int buf[4];
    read(fd, buf, 4);
    int t1 = spawn(worker, 1);
    int t2 = spawn(worker, 2);
    join(t1); join(t2);
    print(g + buf[0]);
    return 0;
}
`
	file := parser.MustParse("fuzzseed.mc", src)
	info := types.MustCheck(file)
	p, err := vm.Compile(info)
	if err != nil {
		f.Fatal(err)
	}
	w := oskit.NewWorld(1)
	w.AddFile(5, []int64{10, 20, 30, 40})
	rec := NewRecorder(w, vm.DefaultCost())
	r := vm.Run(p, vm.Config{Inputs: rec, Monitor: rec, Seed: 9})
	if r.Err != nil {
		f.Fatal(r.Err)
	}
	return rec.Log()
}

// seedVariants adds data plus truncated and bit-flipped mutants of it.
func seedVariants(f *testing.F, data []byte) {
	f.Helper()
	f.Add(data)
	if len(data) > 1 {
		f.Add(data[:len(data)/2])
		f.Add(data[:len(data)-1])
		for _, pos := range []int{0, len(data) / 3, len(data) - 1} {
			mut := append([]byte{}, data...)
			mut[pos] ^= 0x20
			f.Add(mut)
		}
	}
}

// payloads returns the uncompressed input- and order-chunk payloads that a
// LogWriter builds for l (l must be small enough to stay one pending chunk
// per stream).
func payloads(l *Log) (in, ord []byte) {
	lw := NewLogWriter(io.Discard)
	for _, tid := range l.sortedInputTids() {
		for _, rec := range l.Inputs[tid] {
			lw.Input(tid, rec)
		}
	}
	for _, key := range l.sortedOrderKeys() {
		for _, rec := range l.Orders[key] {
			lw.Order(key, rec)
		}
	}
	return lw.inBuf.Bytes(), lw.ordBuf.Bytes()
}

// checkReaders requires ReadLog and Stat to agree on stream: both reject
// it, or both accept it with the same input and order record counts. An
// accepted log must also round-trip through WriteTo.
func checkReaders(t *testing.T, stream []byte) {
	l, err := ReadLog(bytes.NewReader(stream))
	info, serr := Stat(bytes.NewReader(stream))
	if (err == nil) != (serr == nil) {
		t.Fatalf("readers disagree: ReadLog err %v, Stat err %v", err, serr)
	}
	if err != nil {
		return
	}
	if info.Input.Records != int64(l.InputCount()) || info.Order.Records != int64(l.OrderCount()) {
		t.Fatalf("Stat counts %d input / %d order records, ReadLog %d / %d",
			info.Input.Records, info.Order.Records, l.InputCount(), l.OrderCount())
	}
	var buf bytes.Buffer
	if _, err := l.WriteTo(&buf); err != nil {
		t.Fatalf("accepted log failed to re-encode: %v", err)
	}
	l2, err := ReadLog(&buf)
	if err != nil {
		t.Fatalf("re-encoded log failed to decode: %v", err)
	}
	if !logsEqual(l, l2) {
		t.Fatalf("chunked log round-trip mismatch")
	}
}

// FuzzDecodeInput fuzzes input-record decoding: the bytes become the
// payload of one well-formed input chunk, so every mutation reaches the
// record decoder behind the CRC. ReadLog and Stat must agree, and an
// accepted log must round-trip.
func FuzzDecodeInput(f *testing.F) {
	realIn, _ := payloads(realLog(f))
	sampleIn, _ := payloads(sampleLog())
	seedVariants(f, realIn)
	seedVariants(f, sampleIn)
	f.Add(words(0, 1, 2, 0))
	f.Add(words(0, 1, 2, 20)) // the data-length bounds regression shape
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReaders(t, chunkStream(chunkInput, data))
	})
}

// FuzzDecodeOrder is the order-record counterpart of FuzzDecodeInput.
func FuzzDecodeOrder(f *testing.F) {
	_, realOrd := payloads(realLog(f))
	_, sampleOrd := payloads(sampleLog())
	seedVariants(f, realOrd)
	seedVariants(f, sampleOrd)
	f.Add(words(int64(vm.SyncMutex), 7, 1<<8|int64(vm.EvAcquire)))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReaders(t, chunkStream(chunkOrder, data))
	})
}

// FuzzReadLog drives the chunked container format: corrupt streams must
// error (CRC, lengths, framing) in ReadLog and Stat alike, and accepted
// streams must round-trip.
func FuzzReadLog(f *testing.F) {
	var real bytes.Buffer
	if _, err := realLog(f).WriteTo(&real); err != nil {
		f.Fatal(err)
	}
	seedVariants(f, real.Bytes())
	var sample bytes.Buffer
	if _, err := sampleLog().WriteTo(&sample); err != nil {
		f.Fatal(err)
	}
	seedVariants(f, sample.Bytes())
	var empty bytes.Buffer
	if _, err := NewLog().WriteTo(&empty); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	f.Add([]byte("CHIMLOG2"))
	f.Add([]byte("CHIMLOG1junk"))
	f.Fuzz(checkReaders)
}
