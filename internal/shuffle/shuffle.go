// Package shuffle implements the engine's shuffle subsystem: a map-output
// tracker holding each map task's shuffle write, byte accounting (payload
// plus per-block overhead), and the per-node locality totals the scheduler
// uses to place reduce tasks where their input lives.
//
// Every (map task x reduce partition) pair produces one block; each block
// costs a fixed overhead (headers, index entries, framing) on top of its
// payload. This is why total shuffle bytes grow with the partition count
// even at constant payload — the effect behind the paper's Fig. 4.
//
// At high partition counts most blocks are empty, so the read side never
// walks maps x reduces. Each map output's block sizes are folded into
// dense per-node, per-reduce byte totals when it is written, and the
// payload table is then dropped. When the last map output of a
// registration lands, a per-reduce index of the structurally non-empty
// blocks is built once, in map-task order, and replaces the output table.
// A locality query is a read of one column of the totals, and a reduce
// input view walks only the blocks that hold data.
//
// Concurrency: the Manager's own lock only guards the shuffle-id table;
// each shuffle carries its own mutex, so tasks of different shuffles never
// contend. Reads hold the shuffle's lock only to check the lifecycle and
// pick up the totals or the index; the index is immutable once built.
package shuffle

import (
	"fmt"
	"sort"
	"sync"

	"chopper/internal/rdd"
)

// MapOutput is the complete shuffle write of one map task: either the
// columnar arena every reduce bucket slices out of (Cols) or the boxed
// fallback buckets (Boxed), plus the per-reduce logical payload sizes.
// The manager keeps the arena itself, not a materialized per-bucket
// block, folds Payloads into its node totals without retaining them, and
// keeps only the non-empty buckets of a boxed write once the registration
// completes, so its own metadata stays O(maps + reduces x nodes +
// non-empty blocks) per shuffle instead of O(maps x reduces).
type MapOutput struct {
	// Cols is the map task's columnar arena (nil when the task fell back
	// to boxed pairs). Bucket r of the arena is reduce partition r's input.
	Cols *rdd.ColBuckets
	// Boxed holds the per-reduce boxed buckets of a fallback map task
	// (nil when Cols is set).
	Boxed [][]rdd.Pair
	// Payloads is the logical serialized payload size per reduce bucket.
	Payloads []int64
}

// NodeBytes is one entry of a reduce partition's locality profile: how many
// input bytes (payload + overhead) live on one map node. Slices of NodeBytes
// are always sorted by node name, so iteration order is deterministic.
type NodeBytes struct {
	Node  string
	Bytes int64
}

// mapOutput is what the manager holds of one map task's write until the
// registration completes: its arena or its boxed buckets.
type mapOutput struct {
	cols  *rdd.ColBuckets
	boxed [][]rdd.Pair
}

func (mo *mapOutput) written() bool { return mo.cols != nil || mo.boxed != nil }

// bucketLen reports how many pairs reduce bucket r holds.
func (mo *mapOutput) bucketLen(r int) int {
	if mo.cols != nil {
		return mo.cols.BucketLen(r)
	}
	return len(mo.boxed[r])
}

// blockRef is one non-empty block of the read index: the map task's arena
// (the reduce partition picks the bucket) or its boxed bucket itself.
type blockRef struct {
	cols  *rdd.ColBuckets
	pairs []rdd.Pair
}

type state struct {
	mu        sync.Mutex
	numMaps   int
	numReduce int
	// outputs holds the map tasks' writes, by map task, until the last
	// one lands; the index then replaces it, so a boxed task's per-reduce
	// bucket table is not retained.
	outputs   []mapOutput
	completed int
	// nodes are the nodes map outputs were written on, sorted by name;
	// totals[i][r] is reduce r's input bytes (payload + overhead) on
	// nodes[i].
	nodes  []string
	totals [][]int64
	// blockStarts and blocks index the non-empty blocks once every map
	// task has written: reduce r reads blocks[blockStarts[r]:blockStarts[r+1]],
	// in map-task order. Until then blockStarts[r+1] counts reduce r's
	// non-empty blocks so far, and blocks is nil.
	blockStarts []int32
	blocks      []blockRef
	// retired marks a generation whose arenas have been released; any
	// access to its outputs is a lifecycle bug and panics loudly.
	retired bool
}

// mustLive panics when the shuffle's generation has been retired. The
// caller holds st.mu.
func (st *state) mustLive(shuffleID int, op string) {
	if st.retired {
		panic(fmt.Sprintf("shuffle %d: %s after retirement", shuffleID, op))
	}
}

// nodeTotals returns node's row of per-reduce byte totals, inserting a
// zeroed row in name order on the node's first write. The caller holds
// st.mu.
func (st *state) nodeTotals(node string) []int64 {
	i := sort.SearchStrings(st.nodes, node)
	if i < len(st.nodes) && st.nodes[i] == node {
		return st.totals[i]
	}
	row := make([]int64, st.numReduce)
	st.nodes = append(st.nodes, "")
	copy(st.nodes[i+1:], st.nodes[i:])
	st.nodes[i] = node
	st.totals = append(st.totals, nil)
	copy(st.totals[i+1:], st.totals[i:])
	st.totals[i] = row
	return row
}

// buildIndex turns the per-reduce counts of non-empty blocks into the
// index: per reduce partition, the blocks that hold at least one pair, in
// map-task order. Emptiness is structural (pair counts), never inferred
// from payload sizes. The output table is dropped once indexed. The
// caller holds st.mu and every map task has written.
func (st *state) buildIndex() {
	starts := st.blockStarts
	for r := 0; r < st.numReduce; r++ {
		starts[r+1] += starts[r]
	}
	blocks := make([]blockRef, starts[st.numReduce])
	next := make([]int32, st.numReduce)
	copy(next, starts)
	for i := range st.outputs {
		mo := &st.outputs[i]
		for r := 0; r < st.numReduce; r++ {
			if mo.bucketLen(r) == 0 {
				continue
			}
			if mo.cols != nil {
				blocks[next[r]] = blockRef{cols: mo.cols}
			} else {
				blocks[next[r]] = blockRef{pairs: mo.boxed[r]}
			}
			next[r]++
		}
	}
	st.blocks = blocks
	st.outputs = nil
}

// Manager tracks all shuffles of a run.
type Manager struct {
	mu            sync.RWMutex
	overheadBytes int64
	emptyBytes    int64
	shuffles      map[int]*state
}

// NewManager creates a manager with the given per-block overheads in bytes:
// non-empty blocks carry headers and framing (overheadBytes); empty blocks
// only cost an index entry (emptyBytes). With K distinct keys, a shuffle
// over R >> K partitions has mostly empty blocks, so total volume grows
// roughly linearly (not quadratically) with R — matching the paper's Fig. 4.
func NewManager(overheadBytes, emptyBytes int64) *Manager {
	return &Manager{overheadBytes: overheadBytes, emptyBytes: emptyBytes, shuffles: map[int]*state{}}
}

// BlockOverhead reports the overhead charged for a block of the given
// payload size.
func (m *Manager) BlockOverhead(payloadBytes int64) int64 {
	if payloadBytes == 0 {
		return m.emptyBytes
	}
	return m.overheadBytes
}

// blockBytes is payload plus overhead for one block.
func (m *Manager) blockBytes(payload int64) int64 {
	return payload + m.BlockOverhead(payload)
}

// Register announces a shuffle before its map stage runs. Re-registering an
// id resets it (a stage retune re-runs the map side).
func (m *Manager) Register(shuffleID, numMaps, numReduce int) {
	if numMaps <= 0 || numReduce <= 0 {
		panic(fmt.Sprintf("shuffle: register %d with maps=%d reduce=%d", shuffleID, numMaps, numReduce))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.shuffles[shuffleID] = &state{
		numMaps:     numMaps,
		numReduce:   numReduce,
		outputs:     make([]mapOutput, numMaps),
		blockStarts: make([]int32, numReduce+1),
	}
}

// PutMapOutput records the output map task mapTask wrote on node, folding
// its block sizes into node's locality totals. It returns the total bytes
// written (payload plus per-block overhead), the quantity the metrics
// layer reports as shuffle write. Each map task writes exactly once per
// registration: a re-run map stage re-registers first, so a second write
// is a lifecycle bug and panics.
func (m *Manager) PutMapOutput(shuffleID, mapTask int, node string, out MapOutput) int64 {
	st := m.mustGet(shuffleID)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.mustLive(shuffleID, "write")
	if mapTask < 0 || mapTask >= st.numMaps {
		panic(fmt.Sprintf("shuffle %d: map task %d out of range [0,%d)", shuffleID, mapTask, st.numMaps))
	}
	if len(out.Payloads) != st.numReduce {
		panic(fmt.Sprintf("shuffle %d: got %d payloads, want %d", shuffleID, len(out.Payloads), st.numReduce))
	}
	if out.Cols != nil {
		if out.Cols.NumBuckets() != st.numReduce {
			panic(fmt.Sprintf("shuffle %d: arena has %d buckets, want %d", shuffleID, out.Cols.NumBuckets(), st.numReduce))
		}
	} else if len(out.Boxed) != st.numReduce {
		panic(fmt.Sprintf("shuffle %d: got %d boxed buckets, want %d", shuffleID, len(out.Boxed), st.numReduce))
	}
	if st.completed == st.numMaps || st.outputs[mapTask].written() {
		panic(fmt.Sprintf("shuffle %d: map task %d written twice in one registration", shuffleID, mapTask))
	}
	mo := mapOutput{cols: out.Cols, boxed: out.Boxed}
	row := st.nodeTotals(node)
	var bytes int64
	for r, p := range out.Payloads {
		b := m.blockBytes(p)
		row[r] += b
		bytes += b
		if mo.bucketLen(r) > 0 {
			st.blockStarts[r+1]++
		}
	}
	st.outputs[mapTask] = mo
	st.completed++
	if st.completed == st.numMaps {
		st.buildIndex()
	}
	return bytes
}

// Complete reports whether every map task has registered output.
func (m *Manager) Complete(shuffleID int) bool {
	st := m.mustGet(shuffleID)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.completed == st.numMaps
}

// ReduceView is one reduce partition's input: a window over the blocks
// the map tasks wrote for that partition that are non-empty, in map-task
// order (deterministic merge order downstream). Empty blocks are left out; they
// contribute nothing to any merge. BlockInto streams zero-copy views that
// alias the map tasks' arenas: they are valid until the shuffle
// generation retires and must be deep-copied before being retained
// anywhere heap-lived (the genlife rule enforces this contract
// statically).
type ReduceView struct {
	blocks []blockRef
	reduce int
}

// Len reports the number of non-empty input blocks.
func (v ReduceView) Len() int { return len(v.blocks) }

// BlockInto writes block i's zero-copy view into dst, fully overwriting
// it — the exact get-callback shape rdd.MergeReduceColN consumes, so a
// reduce merge reuses one stack scratch block across the whole input.
// Columnar blocks are views of the arena bucket; boxed ones are ColNone
// wrappers over the bucket's pairs.
func (v ReduceView) BlockInto(i int, dst *rdd.ColBlock) {
	b := &v.blocks[i]
	if b.cols != nil {
		b.cols.BucketInto(v.reduce, dst)
		return
	}
	*dst = rdd.ColBlock{Kind: rdd.ColNone, Pairs: b.pairs}
}

// ReduceInput returns the reduce partition's input view over the
// non-empty blocks. Reading before every map task finished, or after the
// generation retired, panics.
func (m *Manager) ReduceInput(shuffleID, reduce int) ReduceView {
	st := m.mustGet(shuffleID)
	checkReduce(st, shuffleID, reduce)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.mustLive(shuffleID, "read")
	if st.completed < st.numMaps {
		for i := range st.outputs {
			if !st.outputs[i].written() {
				panic(fmt.Sprintf("shuffle %d: reduce read before map %d finished", shuffleID, i))
			}
		}
	}
	lo, hi := st.blockStarts[reduce], st.blockStarts[reduce+1]
	return ReduceView{blocks: st.blocks[lo:hi:hi], reduce: reduce}
}

// ReduceBytes reports the bytes a reduce task on readerNode fetches,
// split into local and remote volumes (overhead included per block).
func (m *Manager) ReduceBytes(shuffleID, reduce int, readerNode string) (local, remote int64) {
	for _, nb := range m.ReduceNodeBytes(shuffleID, reduce) {
		if nb.Node == readerNode {
			local += nb.Bytes
		} else {
			remote += nb.Bytes
		}
	}
	return local, remote
}

// ReduceNodeBytes reports, for one reduce partition, how many input bytes
// live on each node that has written map output so far — the locality
// signal for reduce placement — sorted by node name. It reads the totals
// PutMapOutput accumulated, so a query costs O(nodes) whatever the map
// count. The result is a fresh slice the caller owns.
func (m *Manager) ReduceNodeBytes(shuffleID, reduce int) []NodeBytes {
	st := m.mustGet(shuffleID)
	checkReduce(st, shuffleID, reduce)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.mustLive(shuffleID, "read")
	out := make([]NodeBytes, len(st.nodes))
	for i, n := range st.nodes {
		out[i] = NodeBytes{Node: n, Bytes: st.totals[i][reduce]}
	}
	return out
}

// RetireExcept releases every tracked shuffle whose id is not in live:
// output tables, locality totals and block indexes — and with them every
// map task's columnar arena — drop in one step, so a whole generation's
// shuffle memory frees at once instead of trickling through the GC pair
// by pair. Retired ids keep a stub state so a late access panics with a
// clear lifecycle message instead of corrupting silently; Register over a
// retired id resets it fresh (a retuned stage re-runs its map side).
//
// The scheduler calls this at job submission with every shuffle id still
// reachable from the job's lineage — including pre-cache-frontier ids a
// mid-job cache loss may need to re-read — so fault recovery never meets
// a retired shuffle. Returns the number of shuffles retired.
func (m *Manager) RetireExcept(live []int) int {
	keep := make(map[int]bool, len(live))
	for _, id := range live {
		keep[id] = true
	}
	m.mu.RLock()
	ids := make([]int, 0, len(m.shuffles))
	for id := range m.shuffles {
		if !keep[id] {
			ids = append(ids, id)
		}
	}
	m.mu.RUnlock()
	sort.Ints(ids)
	retired := 0
	for _, id := range ids {
		st := m.mustGet(id)
		st.mu.Lock()
		if !st.retired {
			st.outputs = nil
			st.nodes, st.totals = nil, nil
			st.blockStarts, st.blocks = nil, nil
			st.completed = 0
			st.retired = true
			retired++
		}
		st.mu.Unlock()
	}
	return retired
}

// NumReduce reports the reduce-side partition count of a shuffle.
func (m *Manager) NumReduce(shuffleID int) int {
	// numReduce is immutable after Register; no state lock needed.
	return m.mustGet(shuffleID).numReduce
}

func (m *Manager) mustGet(id int) *state {
	m.mu.RLock()
	defer m.mu.RUnlock()
	st, ok := m.shuffles[id]
	if !ok {
		panic(fmt.Sprintf("shuffle: unknown shuffle id %d", id))
	}
	return st
}

func checkReduce(st *state, id, reduce int) {
	if reduce < 0 || reduce >= st.numReduce {
		panic(fmt.Sprintf("shuffle %d: reduce %d out of range [0,%d)", id, reduce, st.numReduce))
	}
}
