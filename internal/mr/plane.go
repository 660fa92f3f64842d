package mr

import (
	"sort"
	"sync"
)

// This file is the shuffle plane: the internal record representation that
// carries every (key, value) pair from map emit through partition, merge
// and group to reduce without re-hashing key strings per record.
//
// Two ideas:
//
//   - Interned keys. Each map task interns key strings into a small table
//     once per *distinct* key, computing the FNV-1a reduce partition at the
//     same time; records carry a uint32 id next to the boxed value. The
//     shuffle then renumbers task-local ids into per-partition ids assigned
//     in ascending key order, which turns reduce-side grouping into a
//     counting sort over dense ids — zero string hashing or comparison per
//     record.
//   - Pooled buffers. Task buffers, the job-wide shuffle state and reduce
//     scratch are recycled through sync.Pools, each borrowed for one whole
//     Run (see enginePools), so no retried attempt can observe a returned
//     buffer. Config.DebugPoisonPools overwrites buffers on return so any
//     violation of that contract corrupts output visibly in chaos tests.
//
// Values ride as the `any` the job emitted. Every job aggregates in its
// mapper and emits partials (histograms, moments, per-point records) from
// Cleanup, so a value boxes once per partial, not once per input record.

// rec is one shuffle record. key indexes a keyTab (task-local before the
// merge, partition-local after); val is the emitted value.
type rec struct {
	key uint32
	val any
}

// keyTab interns key strings to dense uint32 ids. Map tasks intern lazily
// per emit (one map lookup per record, one FNV hash per distinct key); the
// shuffle builds a job-global table from the task tables (never touching
// individual records).
type keyTab struct {
	ids  map[string]uint32
	keys []string
	// part memoizes the key's reduce partition, computed once at intern
	// time with the same inlined FNV-1a as partition().
	part []uint32
}

// intern returns the id for key, assigning the next id (and computing the
// key's partition among n reducers) on first sight.
func (t *keyTab) intern(key string, n int) uint32 {
	if id, ok := t.ids[key]; ok {
		return id
	}
	if t.ids == nil {
		t.ids = make(map[string]uint32, 64)
	}
	id := uint32(len(t.keys))
	t.ids[key] = id
	t.keys = append(t.keys, key)
	t.part = append(t.part, uint32(partition(key, n)))
	return id
}

// reset empties the table keeping its capacity (and the map's buckets), so
// a pooled table re-interns without allocating. With poison set
// (Config.DebugPoisonPools), dead entries are overwritten with garbage
// markers instead of zeroes, so a use-after-recycle reads obviously-wrong
// data rather than stale-but-plausible zero values.
func (t *keyTab) reset(poison bool) {
	clear(t.ids)
	if poison {
		for i := range t.keys {
			t.keys[i] = poisonedKey
		}
		for i := range t.part {
			t.part[i] = ^uint32(0)
		}
	} else {
		// Drop string references so pooled tables don't pin old keys alive.
		clear(t.keys)
	}
	t.keys = t.keys[:0]
	t.part = t.part[:0]
}

// poisonedKey replaces recycled key strings under DebugPoisonPools: any
// stale read produces a key no real job emits.
const poisonedKey = "\x00poisoned\x00"

// poisonRecs overwrites a rec slice with garbage markers (an out-of-range id
// and the poisoned-key string as payload), dropping interface references
// like clearRecs but leaving values a stale reader cannot mistake for live
// data.
func poisonRecs(recs []rec) {
	for i := range recs {
		recs[i] = rec{key: ^uint32(0), val: poisonedKey}
	}
}

// idSorter sorts key ids by their string, reusing one allocation across
// calls (sort.Interface over fields instead of a fresh closure per sort).
type idSorter struct {
	ids  []uint32
	keys []string
}

func (s *idSorter) Len() int           { return len(s.ids) }
func (s *idSorter) Less(i, j int) bool { return s.keys[s.ids[i]] < s.keys[s.ids[j]] }
func (s *idSorter) Swap(i, j int)      { s.ids[i], s.ids[j] = s.ids[j], s.ids[i] }

// groupScratch is the reusable workspace of one counting group: per-id
// counts/offsets, the distinct-id list, a sorter, and a scatter buffer.
type groupScratch struct {
	counts []int32
	ids    []uint32
	sorter idSorter
	recs   []rec
}

// grow readies the scratch for numKeys ids and n records.
func (g *groupScratch) grow(numKeys, n int) {
	if cap(g.counts) < numKeys {
		g.counts = make([]int32, numKeys)
	}
	g.counts = g.counts[:numKeys]
	for i := range g.counts {
		g.counts[i] = 0
	}
	if cap(g.recs) < n {
		g.recs = make([]rec, n)
	}
	g.recs = g.recs[:n]
}

// release drops interface references held by the scatter buffer (called
// when the owner returns to a pool).
func (g *groupScratch) release(poison bool) {
	full := g.recs[:cap(g.recs)]
	if poison {
		poisonRecs(full)
	} else {
		clearRecs(full)
	}
	g.recs = g.recs[:0]
	g.ids = g.ids[:0]
}

// clearRecs zeroes a rec slice through its capacity, dropping any interface
// references a pooled buffer would otherwise pin.
func clearRecs(recs []rec) {
	clear(recs)
}

// groupLocal walks one task-local bucket grouped by key in ascending key
// order — the map-side counterpart of the reduce counting group, used to
// write a bucket as a sorted spill segment. Ids
// are task-local, so the distinct ids present in the bucket are sorted by
// their key string here; values keep emission order within a key.
func groupLocal(bucket []rec, tab *keyTab, sc *groupScratch, fn func(id uint32, grouped []rec) error) error {
	if len(bucket) == 0 {
		return nil
	}
	sc.grow(len(tab.keys), len(bucket))
	for i := range bucket {
		sc.counts[bucket[i].key]++
	}
	sc.ids = sc.ids[:0]
	for id, n := range sc.counts {
		if n > 0 {
			sc.ids = append(sc.ids, uint32(id))
		}
	}
	sc.sorter.ids, sc.sorter.keys = sc.ids, tab.keys
	sort.Sort(&sc.sorter)

	// counts → running offsets in sorted-key order.
	off := int32(0)
	for _, id := range sc.ids {
		n := sc.counts[id]
		sc.counts[id] = off
		off += n
	}
	for i := range bucket {
		o := sc.counts[bucket[i].key]
		sc.recs[o] = bucket[i]
		sc.counts[bucket[i].key] = o + 1
	}
	lo := int32(0)
	for _, id := range sc.ids {
		hi := sc.counts[id]
		if err := fn(id, sc.recs[lo:hi:hi]); err != nil {
			return err
		}
		lo = hi
	}
	return nil
}

// mapState is one map task's shuffle-side output: per-partition record
// buffers plus the task-local key table. One attempt at a time owns it;
// it goes back to the engine pool when its Run releases.
type mapState struct {
	tab     keyTab
	buckets [][]rec
	// bufBytes approximates the buffered record bytes (key + payload, the
	// ShuffledBytes size rule) — maintained only when the owning
	// TaskContext sets trackBuf, i.e. by multiprocess map workers deciding
	// when to spill. The in-process hot path never pays for it.
	bufBytes int64
}

// ready sizes the per-partition buffers for nb buckets, reusing capacity.
func (m *mapState) ready(nb int) {
	if cap(m.buckets) < nb {
		m.buckets = make([][]rec, nb)
	}
	m.buckets = m.buckets[:nb]
}

// reset clears the state for reuse, keeping every allocation. poison
// replaces zeroing with garbage markers (see keyTab.reset).
func (m *mapState) reset(poison bool) {
	for r := range m.buckets {
		full := m.buckets[r][:cap(m.buckets[r])]
		if poison {
			poisonRecs(full)
		} else {
			clearRecs(full)
		}
		m.buckets[r] = m.buckets[r][:0]
	}
	m.tab.reset(poison)
	m.bufBytes = 0
}

// mapOnlyPairs materializes a map-only job's output from its committed
// task states: bucket 0 holds every record, and tasks concatenate in split
// order. Pairs hold the boxed values and immutable key strings, so the
// states may recycle once it returns.
func mapOnlyPairs(states []*mapState) []Pair {
	total := 0
	for _, st := range states {
		total += len(st.buckets[0])
	}
	out := make([]Pair, 0, total)
	for _, st := range states {
		for _, r := range st.buckets[0] {
			out = append(out, Pair{Key: st.tab.keys[r.key], Value: r.val})
		}
	}
	return out
}

// shuffleState is the job-wide merge workspace: the job-global key table,
// per-task id remaps, per-partition merged runs and their sorted key lists,
// and the Run's idle group scratches (the list's capacity recycles with
// the shuffle; the scratches come from their own pool). One Run owns it
// from the map barrier to its release.
type shuffleState struct {
	tab     keyTab     // job-global ids, first-emission order
	remaps  [][]uint32 // task-local id → job-global id
	pid     []uint32   // job-global id → partition-local id
	order   []uint32   // job-global ids in ascending key order
	sorter  idSorter
	runs    [][]rec         // per partition: merged records (partition-local ids)
	runKeys [][]string      // per partition: key strings in ascending order
	idle    []*groupScratch // the Run's group scratches no reduce task holds
}

func (s *shuffleState) reset(poison bool) {
	for r := range s.runs {
		full := s.runs[r][:cap(s.runs[r])]
		if poison {
			poisonRecs(full)
		} else {
			clearRecs(full)
		}
		s.runs[r] = s.runs[r][:0]
	}
	for r := range s.runKeys {
		if poison {
			for i := range s.runKeys[r] {
				s.runKeys[r][i] = poisonedKey
			}
		} else {
			clear(s.runKeys[r])
		}
		s.runKeys[r] = s.runKeys[r][:0]
	}
	for i := range s.remaps {
		s.remaps[i] = s.remaps[i][:0]
	}
	s.remaps = s.remaps[:0]
	clear(s.idle)
	s.idle = s.idle[:0]
	s.pid = s.pid[:0]
	s.order = s.order[:0]
	s.tab.reset(poison)
}

// enginePools recycles the three buffer kinds across jobs. A pooled value
// is borrowed for exactly one Run (or one worker map task) and comes back
// in one place: the in-process Run's release, which the job driver defers
// until every task and retry has finished, or the worker task's deferred
// put. A failed attempt resets its state in place and the retry reuses it,
// so nothing returns to a pool mid-run (p3cvet's poolsafe rule keeps it
// so).
//
// poison, when set, overwrites buffers as they are returned so that any
// read through a stale reference yields garbage — the runtime canary of
// the same contract (see TestChaosPoisonedPools*).
type enginePools struct {
	poison    bool
	mapStates sync.Pool
	shuffles  sync.Pool
	scratches sync.Pool
}

func newEnginePools(poison bool) *enginePools {
	p := &enginePools{poison: poison}
	p.mapStates.New = func() any { return new(mapState) }
	p.shuffles.New = func() any { return new(shuffleState) }
	p.scratches.New = func() any { return new(groupScratch) }
	return p
}

func (p *enginePools) getMapState(nb int) *mapState {
	st := p.mapStates.Get().(*mapState)
	st.ready(nb)
	return st
}

func (p *enginePools) putMapState(st *mapState) {
	if st == nil {
		return
	}
	st.reset(p.poison)
	p.mapStates.Put(st)
}

func (p *enginePools) getShuffle() *shuffleState { return p.shuffles.Get().(*shuffleState) }

func (p *enginePools) putShuffle(s *shuffleState) {
	s.reset(p.poison)
	p.shuffles.Put(s)
}

func (p *enginePools) getScratch() *groupScratch { return p.scratches.Get().(*groupScratch) }

func (p *enginePools) putScratch(sc *groupScratch) {
	sc.release(p.poison)
	p.scratches.Put(sc)
}

// mergeShuffle renumbers every successful map task's records into
// partition-local ids and concatenates them into one contiguous run per
// partition, in split order, so value order within a key is a pure
// function of the split layout.
//
// Ids are assigned in ascending key order within each partition, which is
// what lets groupRun iterate ids 0..K-1 with no sorting: the renumbering
// pass is the only place the shuffle ever compares key strings, and it does
// so once per distinct key, not per record.
func mergeShuffle(sh *shuffleState, states []*mapState, nb, numReducers int) {
	// Job-global table, interning each task's distinct keys in task order.
	for i, st := range states {
		if i < cap(sh.remaps) {
			sh.remaps = sh.remaps[:i+1]
		} else {
			sh.remaps = append(sh.remaps, nil)
		}
		if st == nil {
			continue
		}
		r := sh.remaps[i][:0]
		for _, k := range st.tab.keys {
			r = append(r, sh.tab.intern(k, numReducers))
		}
		sh.remaps[i] = r
	}

	// Ascending key order over the job's distinct keys.
	if cap(sh.order) < len(sh.tab.keys) {
		sh.order = make([]uint32, len(sh.tab.keys))
	}
	sh.order = sh.order[:len(sh.tab.keys)]
	for i := range sh.order {
		sh.order[i] = uint32(i)
	}
	sh.sorter.ids, sh.sorter.keys = sh.order, sh.tab.keys
	sort.Sort(&sh.sorter)

	// Partition-local ids in ascending key order, plus each partition's
	// sorted key list.
	if cap(sh.pid) < len(sh.tab.keys) {
		sh.pid = make([]uint32, len(sh.tab.keys))
	}
	sh.pid = sh.pid[:len(sh.tab.keys)]
	for len(sh.runKeys) < nb {
		sh.runKeys = append(sh.runKeys, nil)
	}
	sh.runKeys = sh.runKeys[:nb]
	for _, gid := range sh.order {
		r := sh.tab.part[gid]
		sh.pid[gid] = uint32(len(sh.runKeys[r]))
		sh.runKeys[r] = append(sh.runKeys[r], sh.tab.keys[gid])
	}

	// Merge, in split order, renumbering each record through two array
	// lookups (task-local id → global id → partition-local id).
	for len(sh.runs) < nb {
		sh.runs = append(sh.runs, nil)
	}
	sh.runs = sh.runs[:nb]
	for r := 0; r < nb; r++ {
		total := 0
		for _, st := range states {
			if st != nil {
				total += len(st.buckets[r])
			}
		}
		run := sh.runs[r]
		if cap(run) < total {
			run = make([]rec, 0, total)
		}
		for i, st := range states {
			if st == nil {
				continue
			}
			remap := sh.remaps[i]
			for _, rc := range st.buckets[r] {
				rc.key = sh.pid[remap[rc.key]]
				run = append(run, rc)
			}
		}
		sh.runs[r] = run
	}
}

// groupRun walks one partition run grouped by key in ascending key order —
// the Hadoop reduce contract — via a counting sort over the dense
// partition-local ids. keys[id] is the key string; values keep run order
// (split order, then emission order), and each callback slice is
// capacity-clamped so an appending callback cannot clobber a neighbour.
// Every key has at least one record, since a key enters a map task's table
// only when a record is emitted under it.
func groupRun(run []rec, keys []string, sc *groupScratch, fn func(key string, grouped []rec) error) error {
	if len(run) == 0 {
		return nil
	}
	sc.grow(len(keys), len(run))
	for i := range run {
		sc.counts[run[i].key]++
	}
	off := int32(0)
	for id := range sc.counts {
		n := sc.counts[id]
		sc.counts[id] = off
		off += n
	}
	for i := range run {
		o := sc.counts[run[i].key]
		sc.recs[o] = run[i]
		sc.counts[run[i].key] = o + 1
	}
	lo := int32(0)
	for id := range keys {
		hi := sc.counts[id]
		if err := fn(keys[id], sc.recs[lo:hi:hi]); err != nil {
			return err
		}
		lo = hi
	}
	return nil
}
