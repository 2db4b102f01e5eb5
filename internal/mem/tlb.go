package mem

// TLB is a per-sequencer translation lookaside buffer: direct-mapped,
// indexed by the low bits of the virtual page number. Each sequencer
// has its own TLB and its own hardware page walker, so (as §2.3 of the
// paper requires) sequencers handle TLB misses independently while
// executing in ring 3; only CR3 updates force synchronization.
type TLB struct {
	entries [tlbEntries]tlbEntry
	// Statistics.
	Hits    uint64
	Misses  uint64
	Flushes uint64
	// PermMisses counts lookups that found the page resident but with
	// insufficient permission (a write to a cached read-only
	// translation). These force a page walk just like cold misses, but
	// the walk exists to (re)check permission, not to fill a missing
	// translation — Table 1's TLB columns report them separately.
	PermMisses uint64
}

const tlbEntries = 256

type tlbEntry struct {
	// vpn is the virtual page number + 1 (0 = invalid). Only walked,
	// hence valid (< VAMax), addresses are inserted, so 32 bits hold it;
	// lookups compare it against the full-width page number, or an
	// address 2^44 above a cached page would carry that page's tag.
	vpn   uint32
	pfn   uint32
	write bool // writable
}

// Lookup returns the physical frame for va if cached with sufficient
// permission. write selects a write access.
func (t *TLB) Lookup(va uint64, write bool) (pfn uint32, ok bool) {
	vpn := va >> PageShift
	e := &t.entries[vpn&(tlbEntries-1)]
	if uint64(e.vpn) == vpn+1 {
		if !write || e.write {
			t.Hits++
			return e.pfn, true
		}
		// Resident but read-only: the walk that follows is a
		// permission (re)check, not a fill.
		t.PermMisses++
		return 0, false
	}
	t.Misses++
	return 0, false
}

// Peek is Lookup without the statistics: it reports what an access to
// va would find and leaves the TLB untouched, so a caller that may
// still decline the access can ask first and count a hit itself.
func (t *TLB) Peek(va uint64, write bool) (pfn uint32, ok bool) {
	vpn := va >> PageShift
	e := &t.entries[vpn&(tlbEntries-1)]
	return e.pfn, uint64(e.vpn) == vpn+1 && (!write || e.write)
}

// Insert caches a translation from a completed page walk.
func (t *TLB) Insert(va uint64, pfn uint32, writable bool) {
	vpn := uint32(va >> PageShift)
	t.entries[vpn&(tlbEntries-1)] = tlbEntry{vpn: vpn + 1, pfn: pfn, write: writable}
}

// Flush invalidates every entry (CR3 write, AMS resume synchronization,
// TLB shootdown).
func (t *TLB) Flush() {
	clear(t.entries[:])
	t.Flushes++
}

// CorruptWritable is the fault plane's TLB-corruption primitive: it
// downgrades the write permission of a resident writable entry (chosen
// by scanning from r's slot), returning whether one was found. The
// downgrade is architecturally recoverable — the next store through the
// entry takes a permission miss and re-walks — but it perturbs timing
// and exercises the PermMiss path.
func (t *TLB) CorruptWritable(r uint64) bool {
	for i := uint64(0); i < tlbEntries; i++ {
		e := &t.entries[(r+i)&(tlbEntries-1)]
		if e.vpn != 0 && e.write {
			e.write = false
			return true
		}
	}
	return false
}

// FlushPage invalidates the entry for one page (INVLPG).
func (t *TLB) FlushPage(va uint64) {
	vpn := va >> PageShift
	e := &t.entries[vpn&(tlbEntries-1)]
	if uint64(e.vpn) == vpn+1 {
		*e = tlbEntry{}
	}
}
