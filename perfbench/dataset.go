package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"

	"masm"
)

// Dataset geometry. Every workload loads the same tables; only the cache
// size, the pre-applied updates and the request mix differ.
const (
	numTables    = 4
	rowsPerTable = 250_000
	bodyBytes    = 100
	// keyStride spaces the bulk-loaded keys so that new-key inserts land
	// between existing rows instead of appending at the end.
	keyStride = 4
	// numParts splits each table's rows into disjoint key partitions: one
	// per load connection (at most two) plus one for the traced run's
	// direct-call probe, so every acknowledged write has a single owner.
	numParts  = 3
	probePart = numParts - 1
	// modifyOff keeps Modify away from the key/version prefix, so every
	// body still names the key it belongs to.
	modifyOff = 16
	modifyLen = 8
)

// Pre-applied updates of the analytics workload: setupRuns flushed batches
// of setupBatch updates per table, so its scans merge several runs.
const (
	setupRuns  = 5
	setupBatch = 1000
)

func tableName(t int) string { return fmt.Sprintf("t%d", t) }

// baseKey is the key of the i-th bulk-loaded row of a table.
func baseKey(i int) uint64 { return uint64(i+1) * keyStride }

func isBaseKey(k uint64) bool {
	return k%keyStride == 0 && k >= keyStride && k <= baseKey(rowsPerTable-1)
}

// partOf is the key partition that owns k (new keys belong to the
// partition of the row below them).
func partOf(k uint64) int { return int(k/keyStride) % numParts }

// makeBody derives a row body from (key, version): the key and version in
// the first 12 bytes, a pseudo-random filler after them. Any row read back
// can therefore be checked against the key it came with.
func makeBody(key uint64, ver uint32) []byte {
	b := make([]byte, bodyBytes)
	binary.LittleEndian.PutUint64(b, key)
	binary.LittleEndian.PutUint32(b[8:], ver)
	x := key*0x9e3779b97f4a7c15 ^ uint64(ver)<<32
	for off := 12; off < bodyBytes; off += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z ^= z >> 31
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], z)
		copy(b[off:], w[:])
	}
	return b
}

// bodyNamesKey reports whether a row body carries the key it was returned
// under — the cheap per-row check used while load runs.
func bodyNamesKey(key uint64, body []byte) bool {
	return len(body) == bodyBytes && binary.LittleEndian.Uint64(body) == key
}

// bulkData is the bulk-load input, the same for every table so that one
// copy serves all of them.
type bulkData struct {
	keys   []uint64
	bodies [][]byte
}

func makeBulk() *bulkData {
	d := &bulkData{keys: make([]uint64, rowsPerTable), bodies: make([][]byte, rowsPerTable)}
	for i := range d.keys {
		d.keys[i] = baseKey(i)
		d.bodies[i] = makeBody(baseKey(i), 0)
	}
	return d
}

// rowState is what a party last did to a key: Put version ver (body
// makeBody(key, ver)) with, if patched, the last Modify on top, or Delete.
// Every Modify writes the same byte range, so the last one is all that
// shows. Keeping states instead of bodies keeps the model's memory small
// next to the engine's.
type rowState struct {
	ver     uint32
	deleted bool
	patched bool
	patch   [modifyLen]byte
}

func (st rowState) body(key uint64) []byte {
	if st.deleted {
		return nil
	}
	b := makeBody(key, st.ver)
	if st.patched {
		copy(b[modifyOff:], st.patch[:])
	}
	return b
}

// overlay maps the keys a party has touched to their state. Untouched keys
// keep their bulk-loaded state.
type overlay [numTables]map[uint64]rowState

func newOverlay() *overlay {
	o := &overlay{}
	for t := range o {
		o[t] = make(map[uint64]rowState)
	}
	return o
}

// model is the expected content of every table: the bulk load, then the
// set-up overlay, then each writer's overlay (disjoint partitions).
type model struct {
	setup   *overlay
	writers []*overlay
}

// state returns key's expected state and whether the key exists at all.
func (m *model) state(t int, key uint64) (rowState, bool) {
	if len(m.writers) > 0 {
		if w := m.writers[partOf(key)]; w != nil {
			if st, ok := w[t][key]; ok {
				return st, true
			}
		}
	}
	if st, ok := m.setup[t][key]; ok {
		return st, true
	}
	return rowState{}, isBaseKey(key)
}

// lookup returns the expected body of key, or nil when it must be absent.
func (m *model) lookup(t int, key uint64) []byte {
	st, ok := m.state(t, key)
	if !ok {
		return nil
	}
	return st.body(key)
}

// present reports whether key exists, without building its body.
func (m *model) present(t int, key uint64) bool {
	st, ok := m.state(t, key)
	return ok && !st.deleted
}

// adjustments lists the keys of table t whose presence differs from the
// bulk load: +1 for a present new key, -1 for a deleted bulk-loaded key.
func (m *model) adjustments(t int) []adjust {
	var adj []adjust
	seen := make(map[uint64]bool)
	for _, o := range append([]*overlay{m.setup}, m.writers...) {
		if o == nil {
			continue
		}
		for k := range o[t] {
			if seen[k] {
				continue
			}
			seen[k] = true
			switch present, base := m.present(t, k), isBaseKey(k); {
			case present && !base:
				adj = append(adj, adjust{key: k, delta: 1})
			case !present && base:
				adj = append(adj, adjust{key: k, delta: -1})
			}
		}
	}
	return adj
}

// rowCount is the expected number of rows of table t.
func (m *model) rowCount(t int) int {
	n := rowsPerTable
	for _, a := range m.adjustments(t) {
		n += a.delta
	}
	return n
}

// rangeCounter counts expected rows in a key range in O(log n), for
// workloads whose load never changes row counts.
type rangeCounter struct {
	adj [numTables][]adjust // sorted by key
}

type adjust struct {
	key   uint64
	delta int
	cum   int // sum of deltas up to and including this entry
}

func newRangeCounter(m *model) *rangeCounter {
	rc := &rangeCounter{}
	for t := 0; t < numTables; t++ {
		adj := m.adjustments(t)
		sort.Slice(adj, func(i, j int) bool { return adj[i].key < adj[j].key })
		cum := 0
		for i := range adj {
			cum += adj[i].delta
			adj[i].cum = cum
		}
		rc.adj[t] = adj
	}
	return rc
}

// count returns the number of rows with key in [lo, hi].
func (rc *rangeCounter) count(t int, lo, hi uint64) int {
	base := baseIndexAtMost(hi) - baseIndexAtMost(lo-1)
	adj := rc.adj[t]
	upTo := func(k uint64) int {
		i := sort.Search(len(adj), func(i int) bool { return adj[i].key > k })
		if i == 0 {
			return 0
		}
		return adj[i-1].cum
	}
	return base + upTo(hi) - upTo(lo-1)
}

// baseIndexAtMost counts bulk-loaded keys ≤ k.
func baseIndexAtMost(k uint64) int {
	n := int(k / keyStride)
	if n > rowsPerTable {
		n = rowsPerTable
	}
	return n
}

// setupOp is one pre-applied update of the analytics workload.
type setupOp struct {
	kind byte // 'p' put, 'd' delete, 'm' modify
	key  uint64
	st   rowState // the key's state after the op
}

// makeSetupOps generates the analytics workload's pre-applied updates
// from the seed and records their outcome in a fresh overlay.
func makeSetupOps(seed int64) ([numTables][]setupOp, *overlay) {
	rng := rand.New(rand.NewSource(seed ^ 0x5e7a9))
	o := newOverlay()
	m := &model{setup: o}
	var ops [numTables][]setupOp
	ver := uint32(1)
	for t := 0; t < numTables; t++ {
		for n := 0; n < setupRuns*setupBatch; n++ {
			key := baseKey(rng.Intn(rowsPerTable))
			op := setupOp{kind: 'p', key: key}
			switch r := rng.Float64(); {
			case r < 0.10:
				op.key = key + 1 + uint64(rng.Intn(keyStride-1))
			case r < 0.20 && m.present(t, key):
				op.kind = 'd'
			case r < 0.30 && m.present(t, key):
				op.kind = 'm'
			}
			switch op.kind {
			case 'p':
				op.st = rowState{ver: ver}
				ver++
			case 'd':
				op.st = rowState{deleted: true}
			case 'm':
				op.st, _ = m.state(t, key)
				op.st.patched = true
				rng.Read(op.st.patch[:])
			}
			o[t][op.key] = op.st
			ops[t] = append(ops[t], op)
		}
	}
	return ops, o
}

// applySetupOps applies the pre-applied updates in process, flushing the
// memtable after every batch of setupBatch so each table ends up with
// several runs.
func applySetupOps(eng *masm.Engine, ops [numTables][]setupOp) error {
	for t := 0; t < numTables; t++ {
		tbl, err := eng.OpenTable(tableName(t))
		if err != nil {
			return err
		}
		for i, op := range ops[t] {
			switch op.kind {
			case 'p':
				err = tbl.Insert(op.key, op.st.body(op.key))
			case 'd':
				err = tbl.Delete(op.key)
			case 'm':
				err = tbl.Modify(op.key, modifyOff, op.st.patch[:])
			}
			if err != nil {
				return fmt.Errorf("setup update on %s: %w", tbl.Name(), err)
			}
			if (i+1)%setupBatch == 0 {
				if err := tbl.Flush(); err != nil {
					return fmt.Errorf("setup flush of %s: %w", tbl.Name(), err)
				}
			}
		}
	}
	return eng.Sync()
}
