package shuffle

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"chopper/internal/rdd"
)

func blocksFor(numReduce int, payload ...int64) MapOutput {
	payloads := make([]int64, numReduce)
	copy(payloads, payload)
	return MapOutput{Boxed: make([][]rdd.Pair, numReduce), Payloads: payloads}
}

// viewBlocks materializes a reduce view as a slice of per-block views, the
// shape rdd.MergeReduceCol takes.
func viewBlocks(v ReduceView) []*rdd.ColBlock {
	out := make([]*rdd.ColBlock, v.Len())
	for i := range out {
		out[i] = new(rdd.ColBlock)
		v.BlockInto(i, out[i])
	}
	return out
}

func TestRegisterAndWriteAccounting(t *testing.T) {
	m := NewManager(10, 10)
	m.Register(1, 2, 3)
	w := m.PutMapOutput(1, 0, "A", blocksFor(3, 100, 200, 0))
	// payload 300 + 3 blocks x 10 overhead.
	if w != 330 {
		t.Fatalf("write bytes = %d, want 330", w)
	}
	if m.Complete(1) {
		t.Fatalf("shuffle not complete with 1 of 2 maps")
	}
	m.PutMapOutput(1, 1, "B", blocksFor(3, 50, 0, 50))
	if !m.Complete(1) {
		t.Fatalf("shuffle should be complete")
	}
	var total int64
	for r := 0; r < 3; r++ {
		l, rem := m.ReduceBytes(1, r, "A")
		total += l + rem
	}
	if total != 330+130 {
		t.Fatalf("total read = %d, want 460", total)
	}
}

func TestReduceInputOrderedByMapTask(t *testing.T) {
	m := NewManager(0, 0)
	m.Register(7, 2, 1)
	b0 := MapOutput{Boxed: [][]rdd.Pair{{{K: 1, V: "m0"}}}, Payloads: []int64{0}}
	b1 := MapOutput{Boxed: [][]rdd.Pair{{{K: 1, V: "m1"}}}, Payloads: []int64{0}}
	// Insert out of order; read must be map-task ordered.
	m.PutMapOutput(7, 1, "B", b1)
	m.PutMapOutput(7, 0, "A", b0)
	in := viewBlocks(m.ReduceInput(7, 0))
	if len(in) != 2 || in[0].Pairs[0].V != "m0" || in[1].Pairs[0].V != "m1" {
		t.Fatalf("reduce input out of order: %v", in)
	}
}

func TestReduceInputSkipsEmptyBlocks(t *testing.T) {
	m := NewManager(0, 0)
	m.Register(7, 3, 2)
	m.PutMapOutput(7, 0, "A", MapOutput{Boxed: [][]rdd.Pair{nil, {{K: 1, V: 1.0}}}, Payloads: []int64{0, 0}})
	// A non-zero payload on an empty bucket does not make it a block.
	m.PutMapOutput(7, 1, "A", MapOutput{Boxed: [][]rdd.Pair{{}, nil}, Payloads: []int64{5, 0}})
	m.PutMapOutput(7, 2, "B", MapOutput{Boxed: [][]rdd.Pair{{{K: 2, V: 2.0}}, {{K: 3, V: 3.0}}}, Payloads: []int64{0, 0}})
	if n := m.ReduceInput(7, 0).Len(); n != 1 {
		t.Fatalf("reduce 0 reads %d blocks, want 1", n)
	}
	in := viewBlocks(m.ReduceInput(7, 1))
	if len(in) != 2 || in[0].Pairs[0].K != 1 || in[1].Pairs[0].K != 3 {
		t.Fatalf("reduce 1 input = %v, want maps 0 and 2", in)
	}
	if n := testing.AllocsPerRun(100, func() { m.ReduceInput(7, 1) }); n != 0 {
		t.Fatalf("ReduceInput allocates %v times per call, want 0", n)
	}
}

func TestReduceBytesLocalRemoteSplit(t *testing.T) {
	m := NewManager(5, 5)
	m.Register(2, 2, 2)
	m.PutMapOutput(2, 0, "A", blocksFor(2, 100, 10))
	m.PutMapOutput(2, 1, "B", blocksFor(2, 40, 20))
	local, remote := m.ReduceBytes(2, 0, "A")
	if local != 105 || remote != 45 {
		t.Fatalf("local=%d remote=%d, want 105/45", local, remote)
	}
	local, remote = m.ReduceBytes(2, 0, "C")
	if local != 0 || remote != 150 {
		t.Fatalf("off-cluster reader: local=%d remote=%d", local, remote)
	}
}

func TestReduceNodeBytesSumsPerNode(t *testing.T) {
	m := NewManager(0, 0)
	m.Register(3, 3, 1)
	m.PutMapOutput(3, 0, "A", blocksFor(1, 100))
	m.PutMapOutput(3, 1, "B", blocksFor(1, 300))
	m.PutMapOutput(3, 2, "A", blocksFor(1, 50))
	want := []NodeBytes{{"A", 150}, {"B", 300}}
	if got := m.ReduceNodeBytes(3, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("node bytes = %v, want %v", got, want)
	}
}

func TestReduceNodeBytesSortedByNode(t *testing.T) {
	m := NewManager(0, 0)
	m.Register(4, 3, 1)
	m.PutMapOutput(4, 0, "C", blocksFor(1, 100))
	m.PutMapOutput(4, 1, "A", blocksFor(1, 100))
	m.PutMapOutput(4, 2, "B", blocksFor(1, 0))
	// A node that wrote only empty, overhead-free blocks still appears.
	want := []NodeBytes{{"A", 100}, {"B", 0}, {"C", 100}}
	if got := m.ReduceNodeBytes(4, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("node bytes = %v, want %v (sorted by node, whatever the write order)", got, want)
	}
}

func TestOverheadGrowsWithReduceCount(t *testing.T) {
	// Same payload, more reduce partitions => more total shuffle bytes.
	payload := int64(1000)
	write := func(numReduce int) int64 {
		m := NewManager(96, 8)
		m.Register(1, 4, numReduce)
		var total int64
		for mt := 0; mt < 4; mt++ {
			blocks := blocksFor(numReduce)
			for i := range blocks.Payloads {
				blocks.Payloads[i] = payload / int64(numReduce)
			}
			total += m.PutMapOutput(1, mt, "A", blocks)
		}
		return total
	}
	small, large := write(10), write(500)
	if large <= small {
		t.Fatalf("shuffle bytes must grow with partition count: %d vs %d", small, large)
	}
}

func TestPanicsOnMisuse(t *testing.T) {
	m := NewManager(0, 0)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("unknown shuffle", func() { m.ReduceInput(99, 0) })
	mustPanic("bad register", func() { m.Register(1, 0, 1) })
	m.Register(1, 2, 1)
	mustPanic("wrong block count", func() { m.PutMapOutput(1, 0, "A", blocksFor(3)) })
	mustPanic("map task range", func() { m.PutMapOutput(1, 5, "A", blocksFor(1)) })
	m.PutMapOutput(1, 0, "A", blocksFor(1, 10))
	mustPanic("map written twice", func() { m.PutMapOutput(1, 0, "B", blocksFor(1, 10)) })
	mustPanic("reduce before maps", func() { m.ReduceInput(1, 0) })
	m.PutMapOutput(1, 1, "A", blocksFor(1, 10))
	mustPanic("reduce range", func() { m.ReduceInput(1, 3) })
	mustPanic("write after complete", func() { m.PutMapOutput(1, 1, "A", blocksFor(1, 10)) })
}

func TestReRegisterResets(t *testing.T) {
	m := NewManager(0, 0)
	m.Register(1, 1, 1)
	m.PutMapOutput(1, 0, "A", blocksFor(1, 10))
	m.Register(1, 2, 2)
	if m.Complete(1) {
		t.Fatalf("re-register should reset completion")
	}
	if m.NumReduce(1) != 2 {
		t.Fatalf("re-register should adopt new reduce count")
	}
	if got := m.ReduceNodeBytes(1, 0); len(got) != 0 {
		t.Fatalf("re-register should reset locality totals, got %v", got)
	}
	// The re-run map stage writes map task 0 again, once.
	m.PutMapOutput(1, 0, "B", blocksFor(2, 10))
}

// naiveNodeBytes recomputes one reduce partition's locality profile from
// the raw writes: every node that wrote a map output appears, with the
// sum of payload plus overhead of its blocks for that partition.
func naiveNodeBytes(nodes []string, payloads [][]int64, reduce int, overhead, empty int64) []NodeBytes {
	byNode := map[string]int64{}
	for mt, p := range payloads {
		b := p[reduce] + overhead
		if p[reduce] == 0 {
			b = p[reduce] + empty
		}
		byNode[nodes[mt]] += b
	}
	out := []NodeBytes{}
	for n, b := range byNode {
		out = append(out, NodeBytes{Node: n, Bytes: b})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// Property: after every write — mid-registration as well as complete —
// ReduceNodeBytes equals a naive recomputation over the writes so far,
// for random payloads written from random nodes in random map order.
func TestQuickReduceNodeBytesMatchesOracle(t *testing.T) {
	const overhead, empty = 7, 3
	nodePool := []string{"n3", "n1", "n0", "n2"}
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		numMaps, numReduce := 1+rng.Intn(8), 1+rng.Intn(12)
		m := NewManager(overhead, empty)
		m.Register(1, numMaps, numReduce)
		var nodes []string
		var payloads [][]int64
		for _, mt := range rng.Perm(numMaps) {
			out := blocksFor(numReduce)
			for r := range out.Payloads {
				if rng.Intn(3) > 0 {
					out.Payloads[r] = rng.Int63n(1 << 20)
				}
			}
			node := nodePool[rng.Intn(len(nodePool))]
			m.PutMapOutput(1, mt, node, out)
			nodes = append(nodes, node)
			payloads = append(payloads, out.Payloads)
			for r := 0; r < numReduce; r++ {
				want := naiveNodeBytes(nodes, payloads, r, overhead, empty)
				if got := m.ReduceNodeBytes(1, r); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d after %d writes, reduce %d: got %v, want %v", seed, len(nodes), r, got, want)
				}
			}
		}
	}
}

// randMapOutput builds one map task's output of the given kind from a few
// random keys spread over many reduce partitions, so most buckets are
// empty. Kinds "int", "intany" (string values) and "str" take the
// columnar writer; "boxedint" and "boxedstr" the boxed fallback.
func randMapOutput(t *testing.T, rng *rand.Rand, kind string, numReduce int, agg *rdd.Aggregator) MapOutput {
	t.Helper()
	n := rng.Intn(6)
	rows := make([]rdd.Row, n)
	for i := range rows {
		k, v := rng.Intn(40), rng.Intn(100)
		switch kind {
		case "str", "boxedstr":
			rows[i] = rdd.Pair{K: fmt.Sprintf("k%02d", k), V: float64(v)}
		case "intany":
			rows[i] = rdd.Pair{K: k, V: fmt.Sprintf("v%d", v)}
		default:
			rows[i] = rdd.Pair{K: k, V: float64(v)}
		}
	}
	part := rdd.NewHashPartitioner(numReduce)
	payloads := make([]int64, numReduce)
	if kind == "boxedint" || kind == "boxedstr" {
		buckets, err := rdd.PartitionPairs(rows, part, agg)
		if err != nil {
			t.Fatal(err)
		}
		return MapOutput{Boxed: buckets, Payloads: payloads}
	}
	cols, boxed, err := rdd.PartitionPairsCol(rows, part, agg)
	if err != nil {
		t.Fatal(err)
	}
	return MapOutput{Cols: cols, Boxed: boxed, Payloads: payloads}
}

// Property: merging a reduce view over the non-empty blocks equals
// merging every map task's full bucket, empty buckets included, for
// columnar, boxed and mixed-kind outputs under each aggregator shape.
func TestQuickReduceInputMatchesFullMerge(t *testing.T) {
	aggs := map[string]*rdd.Aggregator{"none": nil, "sum": rdd.SumAggregator(), "group": rdd.GroupAggregator()}
	mixes := [][]string{
		{"int"}, {"str"}, {"boxedint"}, {"boxedstr"},
		{"int", "boxedint"}, {"str", "boxedstr"}, {"int", "intany", "boxedint"},
	}
	for seed := int64(0); seed < 60; seed++ {
		for _, aggName := range []string{"none", "sum", "group"} {
			for _, mix := range mixes {
				if aggName == "sum" && slices.Contains(mix, "intany") {
					continue // a sum cannot fold the string values of "intany"
				}
				rng := rand.New(rand.NewSource(seed))
				agg := aggs[aggName]
				numMaps, numReduce := 1+rng.Intn(6), 1+rng.Intn(48)
				m := NewManager(0, 0)
				m.Register(1, numMaps, numReduce)
				outs := make([]MapOutput, numMaps)
				for mt := range outs {
					outs[mt] = randMapOutput(t, rng, mix[rng.Intn(len(mix))], numReduce, agg)
					m.PutMapOutput(1, mt, "A", outs[mt])
				}
				for r := 0; r < numReduce; r++ {
					full := make([]*rdd.ColBlock, numMaps)
					nonEmpty := 0
					for mt, out := range outs {
						if out.Cols != nil {
							blk := out.Cols.Bucket(r)
							full[mt] = &blk
						} else {
							full[mt] = &rdd.ColBlock{Kind: rdd.ColNone, Pairs: out.Boxed[r]}
						}
						if full[mt].Len() > 0 {
							nonEmpty++
						}
					}
					view := m.ReduceInput(1, r)
					if view.Len() != nonEmpty {
						t.Fatalf("seed %d %s %v reduce %d: view has %d blocks, want %d non-empty", seed, aggName, mix, r, view.Len(), nonEmpty)
					}
					want := rdd.MergeReduceCol(full, agg)
					if got := rdd.MergeReduceColN(view.Len(), view.BlockInto, agg); !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d %s %v reduce %d: merge over view = %v, full merge = %v", seed, aggName, mix, r, got, want)
					}
				}
			}
		}
	}
}
