package zkvm

import (
	"cmp"
	"errors"
	"math"
	"math/bits"
	"slices"

	"zkflow/internal/slab"
)

// This file is the emulator core: one machine, one execution loop, and
// every run records its trace. Execute and the sealed run (ProveSeeded)
// are the same run over different slabs — Execute never cuts and
// builds its trace on fresh ones, the sealed run cuts every
// SegmentCycles rows and takes them from the pools.

// Guest memory is sparse and paged: a page is pageWords consecutive
// words, allocated on its first access (the final table records every
// word the segment accessed), so a guest may touch any of the 2^32 word
// addresses and pays only for pages it touches: 80 bytes, one or two
// pointers of the page list and two to four slots of the page table —
// at most 128 bytes live, 176 allocated with both arrays' doubling
// garbage, under pageCostBytes per touched page — and the page's 64
// bytes of access times, from a pooled chunk. That is the order of the
// 80-byte trace row every step already costs, so striding accesses
// across the address space buys a hostile guest nothing.
const (
	pageBits      = 4
	pageWords     = 1 << pageBits
	pageCostBytes = 192
	tlbSize       = 64
	// tsChunkPages is how many pages' access times one pooled chunk
	// holds: 4 KB.
	tsChunkPages = 64
)

// Slab pools for the boundary images and final tables of pooled runs,
// and for the access-time chunks of every run (a chunk is cleared when
// it is taken).
var (
	imageSlabs slab.Pool[imageRecord]
	tsSlabs    slab.Pool[[pageWords]uint32]
)

type page struct {
	no    uint32 // addr >> pageBits
	words [pageWords]uint32
	// ts is each word's last access time in the open segment: its log
	// position plus one, or 0 if the segment has not accessed it.
	ts *[pageWords]uint32
}

// pagedMem is guest memory. Absent pages read as zero.
type pagedMem struct {
	// tlb caches the last page seen per low page-number bits, the fast
	// path (the aggregation guest misses it on 6% of accesses; a single
	// last-page slot, on every other one).
	tlb [tlbSize]*page
	// slots is the page table: linear probing, Fibonacci-hashed on the
	// page number, a power-of-two size kept at most half full.
	slots []*page
	shift uint // 32 - log2(len(slots))
	// pages lists every page; the first sorted are in address order,
	// pages touched since the last image follow.
	pages  []*page
	sorted int
	chunk  []page // the slab the next pages are carved from
	// Every page's access times are carved from tsFree, the unused rest
	// of the last of the pooled chunks tsChunks.
	tsFree   [][pageWords]uint32
	tsChunks [][][pageWords]uint32
}

// find returns the page numbered no, or the empty slot it belongs in.
func (pm *pagedMem) find(no uint32) **page {
	for h := no * 0x9e3779b1 >> pm.shift; ; h++ {
		s := &pm.slots[h&uint32(len(pm.slots)-1)]
		if *s == nil || (*s).no == no {
			return s
		}
	}
}

// at returns the page holding addr, allocating it if it is absent.
func (pm *pagedMem) at(addr uint32) *page {
	no := addr >> pageBits
	p := pm.tlb[no%tlbSize]
	if p == nil || p.no != no {
		p = pm.touch(no)
		pm.tlb[no%tlbSize] = p
	}
	return p
}

// touch returns the page numbered no, allocating it if it is absent.
func (pm *pagedMem) touch(no uint32) *page {
	if 2*len(pm.pages) >= len(pm.slots) {
		pm.slots = make([]*page, max(2*len(pm.slots), 16))
		pm.shift = uint(32 - bits.TrailingZeros(uint(len(pm.slots))))
		for _, p := range pm.pages {
			*pm.find(p.no) = p
		}
	}
	s := pm.find(no)
	if *s == nil {
		if len(pm.chunk) == 0 {
			// Chunks grow with the page count, up to 64 pages.
			pm.chunk = make([]page, min(len(pm.pages)+1, 64))
		}
		*s, pm.chunk = &pm.chunk[0], pm.chunk[1:]
		(*s).no = no
		if len(pm.tsFree) == 0 {
			c := tsSlabs.Get(tsChunkPages)
			clear(c)
			pm.tsChunks, pm.tsFree = append(pm.tsChunks, c), c
		}
		(*s).ts, pm.tsFree = &pm.tsFree[0], pm.tsFree[1:]
		if len(pm.pages) == cap(pm.pages) {
			pm.pages = growDoubling(nil, pm.pages, 0)
		}
		pm.pages = append(pm.pages, *s)
	}
	return *s
}

// image canonicalises memory as a segment's final table, appended to
// img, which has room for every word of every page: in address order,
// one record (addr, val, ts) per word whose tuple is not virtual — every
// word the segment accessed, and every nonzero word. The page list is
// re-sorted only when pages were touched since the last image; the walk
// itself, one pass, is in address order. restart clears the access
// times for the next segment, which reads every word at time zero.
func (pm *pagedMem) image(restart bool, img []imageRecord) []imageRecord {
	if pm.sorted < len(pm.pages) {
		slices.SortFunc(pm.pages, func(a, b *page) int { return cmp.Compare(a.no, b.no) })
		pm.sorted = len(pm.pages)
	}
	for _, p := range pm.pages {
		for w, v := range p.words {
			if v != 0 || p.ts[w] != 0 {
				img = append(img, imageRecord{Addr: p.no<<pageBits | uint32(w), Val: v, Ts: p.ts[w]})
			}
		}
		if restart {
			clear(p.ts[:])
		}
	}
	return img
}

// release returns the access-time chunks to their pool once the run
// is over: images have copied out every time they keep.
func (pm *pagedMem) release() {
	for _, c := range pm.tsChunks {
		tsSlabs.Put(c)
	}
	pm.tsChunks, pm.tsFree = nil, nil
}

// neverCut is the segment length of a run that is one segment.
const neverCut = math.MaxInt

// machine is a TinyRISC machine mid-run. It is step's execEnv: loads
// and stores go to paged memory and to the open segment's memory log.
type machine struct {
	prog    *Program
	input   []uint32
	inPtr   int
	journal []uint32 // whole-run journal; segments own sub-slices of it
	mem     pagedMem
	scratch []byte // SysHash message buffer, grown to the largest request

	cut int // steps per segment; neverCut for a one-segment run
	// rowSlabs and memSlabs hold the trace; both are nil when it
	// outlives the package (Execute, never cut): fresh slabs, and no
	// final table.
	rowSlabs *slab.Pool[Row]
	memSlabs *slab.Pool[MemEntry]
	// closed, if set, receives each segment the run cuts off, closed
	// over its exit image, while the run goes on (ProveSeeded's sealer).
	closed func(*segmentExecution)

	// The open segment. rows is fully sliced (len == cap) and row n is
	// the machine's current state; step writes row n+1 in place.
	rows []Row
	n    int
	log  []MemEntry
	seg  *segmentExecution
	segs []*segmentExecution // closed and open segments, in order
}

// newMachine returns a reset machine over fresh memory. A cut ≤ 0 never
// cuts, and a positive one is floored to minSegmentCycles; run opens
// segment 0.
func newMachine(prog *Program, input []uint32, cut int) *machine {
	if cut <= 0 {
		cut = neverCut
	}
	return &machine{prog: prog, input: input, cut: max(cut, minSegmentCycles), rowSlabs: &rowSlabs, memSlabs: &memSlabs}
}

// openSegment starts the next segment at boundary state b over the
// entry image img. room is what is left of the run's step budget.
func (m *machine) openSegment(b *Row, img []imageRecord, room int) {
	prev := m.n // steps of the segment just closed; 0 before the first
	m.n = 0
	m.seg = &segmentExecution{
		index:    len(m.segs),
		entryImg: img,
		entry: SegmentState{
			PC: b.PC, Regs: b.Regs,
			InPtr:  uint32(m.inPtr),
			JPtr:   uint32(len(m.journal)),
			MemLen: uint32(len(img)),
		},
		ex: &Execution{Program: m.prog},
	}
	if m.seg.index == 0 {
		m.seg.entry.MemRoot = genesisRoot()
	}
	m.segs = append(m.segs, m.seg)
	// A segment runs at most min(cut, room) steps, plus the successor
	// slot step fills even on the halt row. But cut is whatever
	// -segment-cycles or ProveOptions.SegmentCycles says, unchecked,
	// and room defaults to 2^26, so the slabs are sized by what
	// this program is known to produce — the largest segment it has
	// traced, or the segment this run just filled — and double from
	// there. A cut segment's log size is a guess.
	hintRows, mem := m.prog.traceHint.load()
	rows := min(m.cut, room, max(hintRows, prev, 1024)) + 1
	if m.cut != neverCut {
		mem = rows / 2
	}
	m.rows, m.log = m.rowSlabs.Get(rows), m.memSlabs.Get(mem)[:0]
	m.rows = m.rows[:cap(m.rows)]
	m.rows[0] = Row{PC: b.PC, Regs: b.Regs}
}

// cutSegment closes the open segment on its current row — the row
// step just wrote, which becomes the boundary both segments share —
// and opens the next over the image at this instant.
func (m *machine) cutSegment(room int) {
	b, prev, img := m.rows[m.n], m.seg, m.image(true)
	m.publish()
	m.noteTrace()
	m.openSegment(&b, img, room)
	prev.exit, prev.exitImg = m.seg.entry, img
	if m.closed != nil {
		m.closed(prev)
	}
}

// noteTrace folds the open segment's trace into its program's hint and
// into anyTrace.
func (m *machine) noteTrace() {
	m.prog.traceHint.note(m.n+1, len(m.log))
	anyTrace.note(m.n+1, len(m.log))
}

// image reads memory off as a final table into a pooled slab.
func (m *machine) image(restart bool) []imageRecord {
	return m.mem.image(restart, imageSlabs.Get(pageWords * len(m.mem.pages))[:0])
}

// publish hands the open segment its trace: rows 0..n, the memory log,
// and the journal words written since its entry.
func (m *machine) publish() {
	ex, j := m.seg.ex, len(m.journal)
	ex.Rows, ex.MemLog, ex.Journal = m.rows[:m.n+1], m.log, m.journal[m.seg.entry.JPtr:j:j]
}

// releaseSegments returns the slabs of a run's segments to the pools,
// once nothing reads them: each trace, and each image once — a
// boundary image as the entry image of the segment after it, and the
// final segment's own final table.
func releaseSegments(segs []*segmentExecution) {
	for _, s := range segs {
		releaseExecution(s.ex)
		imageSlabs.Put(s.entryImg)
		if s.final {
			imageSlabs.Put(s.exitImg)
		}
		s.entryImg, s.exitImg = nil, nil
	}
}

// fail abandons the run: the open segment keeps the trace it has, and
// the caller returns the slabs to the pools (releaseSegments) once
// nothing reads them.
func (m *machine) fail(err error) error {
	m.publish()
	return err
}

// run drives the machine to its halt within maxSteps cycles in total
// (0 = DefaultMaxSteps). Every non-final segment executes exactly cut
// steps and carries one extra boundary row, the pre-state of the next
// segment's first step; the final segment ends on the halt row.
func (m *machine) run(maxSteps int) error {
	if maxSteps == 0 {
		maxSteps = DefaultMaxSteps
	}
	defer m.mem.release()
	m.openSegment(&Row{}, nil, maxSteps)
	for stepNo := 0; ; stepNo++ {
		if stepNo >= maxSteps {
			return m.fail(ErrStepLimit)
		}
		if m.n == m.cut {
			m.cutSegment(maxSteps - stepNo)
		}
		if m.n+1 >= len(m.rows) {
			least, _ := anyTrace.load()
			m.rows = growDoubling(m.rowSlabs, m.rows, least+1)
			m.rows = m.rows[:cap(m.rows)]
		}
		cur := &m.rows[m.n]
		halted, err := step(m.prog, cur, &m.rows[m.n+1], m)
		if err != nil {
			return m.fail(&TrapError{PC: cur.PC, Step: stepNo, Reason: err.Error()})
		}
		if halted {
			m.publish()
			m.seg.final, m.seg.ex.ExitCode = true, cur.Regs[R1]
			if m.rowSlabs != nil {
				m.seg.exitImg = m.image(false)
			}
			m.noteTrace()
			return nil
		}
		m.n++
	}
}

func (m *machine) load(addr uint32) (uint32, error) {
	p, w := m.mem.at(addr), addr%pageWords
	v := p.words[w]
	m.logAccess(MemEntry{Addr: addr, Val: v, PrevVal: v, PrevTs: p.ts[w]}, &p.ts[w])
	return v, nil
}

func (m *machine) store(addr, val uint32) error {
	p, w := m.mem.at(addr), addr%pageWords
	m.logAccess(MemEntry{Addr: addr, Val: val, PrevVal: p.words[w], PrevTs: p.ts[w], IsWrite: true}, &p.ts[w])
	p.words[w] = val
	return nil
}

// logAccess appends e and stamps its word with e's time, its position
// plus one.
func (m *machine) logAccess(e MemEntry, ts *uint32) {
	if len(m.log) == cap(m.log) {
		_, least := anyTrace.load()
		m.log = growDoubling(m.memSlabs, m.log, least)
	}
	m.log = append(m.log, e)
	*ts = uint32(len(m.log))
}

func (m *machine) readInput() (uint32, error) {
	if m.inPtr >= len(m.input) {
		return 0, errors.New("input tape exhausted")
	}
	v := m.input[m.inPtr]
	m.inPtr++
	return v, nil
}

func (m *machine) writeJournal(val uint32) error {
	m.journal = append(m.journal, val)
	return nil
}

func (m *machine) hash(addr, n, dst uint32) error {
	if cap(m.scratch) < int(4*n) {
		m.scratch = make([]byte, 4*n)
	}
	return hashWords(m, m.scratch[:4*n], addr, n, dst)
}
