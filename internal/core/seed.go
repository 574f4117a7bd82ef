package core

import (
	"fmt"

	"chopper/internal/config"
	"chopper/internal/rdd"
)

// SeedHint is one statically inferred scheme hint for a stage, produced by
// the static key-flow analysis (internal/plan/extract) without ever running or
// profiling the workload: the partitioner family the stage will use, whether
// its partitioning is user-pinned, which co-partition group it belongs to,
// and — when the key expression is provably constant or enum-small — an
// upper bound on the number of distinct keys its shuffle can carry.
type SeedHint struct {
	Signature string
	Scheme    rdd.SchemeName

	// Fixed marks stages whose partitioning the workload pins explicitly
	// (PartitionBy and friends); seeding never overrides those.
	Fixed bool

	// Group is the co-partition group ordinal (-1 when the stage shares its
	// partitioner identity with no other stage). Members of one group must
	// receive one partition count, or a narrow co-partitioned join would
	// silently widen.
	Group int

	// KeyBound is a provable upper bound on distinct keys (0 = unbounded).
	// Partitions beyond the bound are guaranteed empty.
	KeyBound int
}

// SeedConfig builds a first-run configuration from static hints alone — the
// cold-start path for workloads the DB has never profiled. Unlike
// GenerateConfig it has no cost models to consult, so it only acts where the
// hints carry proof: a stage whose key space is bounded gets exactly that
// many partitions (capped at the default parallelism), and co-partition
// groups move together or not at all. Everything else keeps the default
// plan, so seeding is never worse than doing nothing.
func (o *Optimizer) SeedConfig(workload string, hints []SeedHint) (*config.File, error) {
	cap := o.DefaultParallelism
	if cap <= 0 {
		cap = 300
	}

	// A group is seedable only if no member is pinned and at least one
	// member carries a key bound; all members then share the tightest bound.
	groupBound := map[int]int{}
	groupPinned := map[int]bool{}
	for _, h := range hints {
		if h.Group < 0 {
			continue
		}
		if h.Fixed {
			groupPinned[h.Group] = true
		}
		if h.KeyBound > 0 {
			if b, ok := groupBound[h.Group]; !ok || h.KeyBound < b {
				groupBound[h.Group] = h.KeyBound
			}
		}
	}

	f := &config.File{Workload: workload}
	for _, h := range hints {
		if h.Fixed || h.Signature == "" {
			continue
		}
		bound := h.KeyBound
		if h.Group >= 0 {
			if groupPinned[h.Group] {
				continue
			}
			bound = groupBound[h.Group]
		}
		if bound <= 0 {
			continue
		}
		n := bound
		if n > cap {
			n = cap
		}
		scheme := h.Scheme
		if !rdd.ValidScheme(scheme) {
			scheme = rdd.SchemeHash
		}
		f.Set(config.Entry{Signature: h.Signature, Scheme: scheme, NumPartitions: n})
	}
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("core: seed config for %s: %w", workload, err)
	}
	return f, nil
}
