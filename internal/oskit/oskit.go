// Package oskit implements the simulated operating system and devices the
// MiniC programs run against: files, a network with timed connection
// arrivals, a clock, and a pseudo-random source.
//
// This substitutes for the paper's patched Linux kernel (paper §6.1): the
// kernel's role in Chimera is to be the boundary at which nondeterministic
// input enters the program, so the simulation only needs to produce
// well-defined, timed inputs — which devices deliver what data when. The
// recorder logs exactly what crosses this boundary.
package oskit

import "fmt"

// World is one configured simulated environment. A World is deterministic:
// the same World contents produce the same device behavior, so run-to-run
// nondeterminism comes only from thread scheduling (and from Rnd, which is
// deliberately an unrecorded-until-logged input source).
type World struct {
	files map[int64][]int64 // path id -> contents (words)

	// Network: a listener socket accepts connections in arrival order.
	conns       []*Conn
	nextAccept  int
	connByID    map[int64]*Conn
	acceptGrace int64

	openFiles map[int64]*openFile
	nextFD    int64

	rndState uint64

	// ReadLatency and friends model device service times in cycles.
	ReadLatency  int64
	WriteLatency int64
	NetLatency   int64

	// writeLog captures write() data per fd, for assertions in tests.
	writeLog map[int64][]int64
}

// Conn is one simulated inbound network connection. Data is pipelined: the
// k-th recv's payload becomes ready at Arrival + (k+1)*NetLatency
// regardless of when the program asks, so a program that does extra work
// between recvs (e.g. recording overhead) overlaps it with the transfer —
// the effect behind the paper's "recording cost overlaps with I/O wait".
type Conn struct {
	ID      int64
	Arrival int64   // absolute simulated time the connection arrives
	Request []int64 // request payload readable via recv
	readOff int
	readyAt int64   // pipelined readiness cursor
	Sent    []int64 // words the program sent back
}

type openFile struct {
	path    int64
	off     int
	readyAt int64 // pipelined readahead cursor
}

// NewWorld returns an empty world with default device latencies.
func NewWorld(rndSeed uint64) *World {
	return &World{
		files:        make(map[int64][]int64),
		connByID:     make(map[int64]*Conn),
		openFiles:    make(map[int64]*openFile),
		nextFD:       3, // 0..2 reserved, as ever
		rndState:     rndSeed*2 + 1,
		ReadLatency:  600,
		WriteLatency: 400,
		NetLatency:   3000,
		writeLog:     make(map[int64][]int64),
	}
}

// AddFile installs a file with the given path id and contents.
func (w *World) AddFile(path int64, data []int64) { w.files[path] = data }

// AddConn schedules an inbound connection at the given arrival time with
// the given request payload; it returns the connection id the program will
// see from accept().
func (w *World) AddConn(arrival int64, request []int64) int64 {
	id := int64(1000 + len(w.conns))
	c := &Conn{ID: id, Arrival: arrival, Request: request}
	w.conns = append(w.conns, c)
	w.connByID[id] = c
	return id
}

// Conns returns all scheduled connections.
func (w *World) Conns() []*Conn { return w.conns }

// Written returns the words written to fd via write().
func (w *World) Written(fd int64) []int64 { return w.writeLog[fd] }

// Reset rewinds per-run device state (file offsets, accept cursor,
// connection read cursors, write logs) so the same World can serve multiple
// runs identically. The rnd stream is reseeded.
func (w *World) Reset(rndSeed uint64) {
	w.nextAccept = 0
	w.openFiles = make(map[int64]*openFile)
	w.nextFD = 3
	w.rndState = rndSeed*2 + 1
	w.writeLog = make(map[int64][]int64)
	for _, c := range w.conns {
		c.readOff = 0
		c.readyAt = 0
		c.Sent = nil
	}
}

// ---------------------------------------------------------------------------
// vm.OS implementation

// Open implements vm.OS.
func (w *World) Open(path int64, now int64) (int64, int64) {
	if _, ok := w.files[path]; !ok {
		return -1, now
	}
	fd := w.nextFD
	w.nextFD++
	w.openFiles[fd] = &openFile{path: path, readyAt: now + w.ReadLatency/4}
	return fd, now + w.ReadLatency/4
}

// Close implements vm.OS.
func (w *World) Close(fd int64) { delete(w.openFiles, fd) }

// Read implements vm.OS. Sequential reads are pipelined (readahead): each
// read's data becomes ready a fixed latency after the previous one was,
// independent of when the caller asks.
func (w *World) Read(fd, n, now int64) ([]int64, int64) {
	f, ok := w.openFiles[fd]
	if !ok || n <= 0 {
		return nil, now
	}
	data := w.files[f.path]
	if f.off >= len(data) {
		return nil, max64(now, f.readyAt) // EOF
	}
	end := f.off + int(n)
	if end > len(data) {
		end = len(data)
	}
	out := data[f.off:end]
	f.off = end
	f.readyAt += w.ReadLatency
	return out, max64(now, f.readyAt)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Write implements vm.OS.
func (w *World) Write(fd int64, data []int64, now int64) (int64, int64) {
	w.writeLog[fd] = append(w.writeLog[fd], data...)
	return int64(len(data)), now + w.WriteLatency
}

// Accept implements vm.OS. Connections are handed out in arrival order; the
// caller waits until the next one arrives. When all connections have been
// served, accept returns -1 ("listener closed").
func (w *World) Accept(lsock int64, now int64) (int64, int64) {
	if w.nextAccept >= len(w.conns) {
		return -1, now
	}
	c := w.conns[w.nextAccept]
	w.nextAccept++
	ready := c.Arrival
	if ready < now {
		ready = now
	}
	return c.ID, ready + w.acceptGrace
}

// Recv implements vm.OS.
func (w *World) Recv(conn, n, now int64) ([]int64, int64) {
	c, ok := w.connByID[conn]
	if !ok || n <= 0 {
		return nil, now
	}
	if c.readOff >= len(c.Request) {
		return nil, now // connection drained
	}
	end := c.readOff + int(n)
	if end > len(c.Request) {
		end = len(c.Request)
	}
	out := c.Request[c.readOff:end]
	c.readOff = end
	if c.readyAt == 0 {
		c.readyAt = c.Arrival
	}
	c.readyAt += w.NetLatency
	return out, max64(now, c.readyAt)
}

// Send implements vm.OS.
func (w *World) Send(conn int64, data []int64, now int64) (int64, int64) {
	c, ok := w.connByID[conn]
	if !ok {
		return -1, now
	}
	c.Sent = append(c.Sent, data...)
	return int64(len(data)), now + w.NetLatency/2
}

// Now implements vm.OS: the wall clock is the caller's own simulated time,
// which depends on scheduling — a genuinely nondeterministic input.
func (w *World) Now(now int64) int64 { return now }

// Rnd implements vm.OS with an xorshift PRNG stream shared by all threads,
// so the values a given thread sees depend on scheduling.
func (w *World) Rnd(n int64) int64 {
	w.rndState ^= w.rndState << 13
	w.rndState ^= w.rndState >> 7
	w.rndState ^= w.rndState << 17
	if n <= 0 {
		return int64(w.rndState >> 1)
	}
	return int64(w.rndState>>1) % n
}

// WordsOf converts a byte string to file words (one byte per word, as MiniC
// strings are word arrays).
func WordsOf(s string) []int64 {
	out := make([]int64, len(s))
	for i := 0; i < len(s); i++ {
		out[i] = int64(s[i])
	}
	return out
}

// SeqWords returns n words 0..n-1 scrambled by a multiplicative hash; a
// convenient deterministic "file contents" generator for workloads.
func SeqWords(n int, seed uint64) []int64 {
	out := make([]int64, n)
	x := seed*6364136223846793005 + 1442695040888963407
	for i := range out {
		x = x*6364136223846793005 + 1442695040888963407
		out[i] = int64((x >> 33) & 0x7fffffff)
	}
	return out
}

// String renders a brief world summary.
func (w *World) String() string {
	return fmt.Sprintf("world{files:%d conns:%d}", len(w.files), len(w.conns))
}
