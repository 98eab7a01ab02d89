package vm

// Memory pages: the address space [0, memTop) is split into pages of
// pageWords words, each allocated on its first store. Globals, heap and
// all maxThreads stack slots keep fixed addresses, but a run pays only
// for the pages it writes; a word never written reads 0. Callers check
// validAddr first.
const (
	pageShift = 12
	pageWords = 1 << pageShift
	pageMask  = pageWords - 1
)

// memory is the page table; a nil entry is a page never written.
type memory []*[pageWords]int64

func newMemory(top int64) memory {
	return make(memory, (top+pageMask)>>pageShift)
}

func (mem memory) load(addr int64) int64 {
	if p := mem[addr>>pageShift]; p != nil {
		return p[addr&pageMask]
	}
	return 0
}

func (mem memory) store(addr, v int64) {
	p := mem[addr>>pageShift]
	if p == nil {
		p = new([pageWords]int64)
		mem[addr>>pageShift] = p
	}
	p[addr&pageMask] = v
}
