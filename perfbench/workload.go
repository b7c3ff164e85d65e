package main

import (
	"fmt"
	"math/rand"
	"sync"
)

// Unit kinds. A unit is what one sender does in one step: a lookup,
// a 64-entry batch lookup, or a vote followed by a lookup of the voted
// program on the same connection.
const (
	unitLookup = iota
	unitBatch
	unitVote
)

// batchSize is the number of IDs per LookupBatch frame.
const batchSize = 64

// Unit is one generated step.
type Unit struct {
	Kind    int
	Prog    int   // program index (lookup, vote)
	Batch   []int // program indexes (batch)
	User    int   // voter (vote)
	Score   int   // vote score
	Comment string
}

// Ops is how many operations a unit counts as: one lookup, one
// looked-up entry, or one request.
func (u Unit) Ops() int {
	switch u.Kind {
	case unitBatch:
		return len(u.Batch)
	case unitVote:
		return 2
	}
	return 1
}

// Spec describes one workload.
type Spec struct {
	Name string
	// Binary selects the binary wire protocol; false speaks XML.
	Binary bool
	// Rate is the open-loop schedule in units per second, fixed so that
	// every commit is measured at the same offered load. The rates are
	// about 20% of each workload's closed-loop capacity on a 2-core x86
	// VM of a shared host when its CPU steal is high: at higher load,
	// steal bursts turn into queueing and latency stops being repeatable.
	Rate float64
}

// Specs lists the workloads. They stress different layers, so a change
// that helps one use of the shared code and costs another shows up:
//
//   - lookup-hot: binary single lookups skewed 90/10 over the rated
//     programs. The working set fits the report cache, so the cost is
//     per request: HTTP, the middleware chain and the binary codec.
//     repo and storedb do almost nothing here.
//   - batch-cold: binary 64-entry batch lookups uniform over the whole
//     catalog, 12x the report cache. Nearly every entry misses and
//     builds its report from repo and storedb B+tree reads, while
//     per-request overhead is amortised.
//   - vote-mixed: XML, as repclient speaks it. 20% of requests are
//     fsynced votes with a comment, each followed on the same
//     connection by a lookup that must show it; the rest are hot
//     lookups. Writes invalidate cached reports and drive compaction
//     beside the reads.
var Specs = map[string]Spec{
	"lookup-hot": {Name: "lookup-hot", Binary: true, Rate: 2000},
	"batch-cold": {Name: "batch-cold", Binary: true, Rate: 250},
	"vote-mixed": {Name: "vote-mixed", Binary: false, Rate: 800}, // 1,000 requests/s
}

// hotSkew is the lookup skew over the hot set: hotSkewShare of
// lookups go to the first hotSkewFrac of the hot programs.
const (
	hotSkewFrac  = 0.10
	hotSkewShare = 0.90
	voteUnitFrac = 0.25 // a vote unit is 2 requests: 25% of units = 20% of requests are votes
)

// Generator yields a workload's units in a fixed order for a seed. It
// is safe for concurrent use; which sender runs which unit is not
// fixed, the sequence is.
type Generator struct {
	mu    sync.Mutex
	spec  Spec
	cat   *Catalog
	seed  int64
	rng   *rand.Rand
	used  map[[2]int]bool // (user, hot program) pairs already rated
	votes int
}

// NewGenerator starts the unit sequence of spec over cat for a seed.
func NewGenerator(spec Spec, cat *Catalog, seed int64) *Generator {
	g := &Generator{
		spec: spec,
		cat:  cat,
		seed: seed,
		rng:  rand.New(rand.NewSource(seed*7919 + int64(len(spec.Name)))),
		used: make(map[[2]int]bool),
	}
	for h, users := range cat.Rated {
		for _, u := range users {
			g.used[[2]int{u, h}] = true
		}
	}
	return g
}

// Next returns the next unit.
func (g *Generator) Next() Unit {
	g.mu.Lock()
	defer g.mu.Unlock()
	switch g.spec.Name {
	case "batch-cold":
		ids := make([]int, batchSize)
		for i := range ids {
			ids[i] = g.rng.Intn(len(g.cat.Programs))
		}
		return Unit{Kind: unitBatch, Batch: ids}
	case "vote-mixed":
		if g.rng.Float64() < voteUnitFrac {
			return g.voteLocked()
		}
	}
	return Unit{Kind: unitLookup, Prog: g.hotLocked()}
}

func (g *Generator) hotLocked() int {
	hot := len(g.cat.Rated)
	skewed := int(hotSkewFrac * float64(hot))
	if g.rng.Float64() < hotSkewShare {
		return g.rng.Intn(skewed)
	}
	return skewed + g.rng.Intn(hot-skewed)
}

// voteLocked picks a (user, hot program) pair nobody has rated: the
// one-vote rule would turn a repeat into ErrAlreadyRated, and such
// failures must not pass as expected.
func (g *Generator) voteLocked() Unit {
	if len(g.used) >= len(g.cat.Users)*len(g.cat.Rated) {
		// Only a catalog far smaller than the benchmark's can run out.
		panic("perfbench: every (user, hot program) pair has a vote; the catalog is too small for this run")
	}
	for {
		u, h := g.rng.Intn(len(g.cat.Users)), g.rng.Intn(len(g.cat.Rated))
		if g.used[[2]int{u, h}] {
			continue
		}
		g.used[[2]int{u, h}] = true
		g.votes++
		return Unit{
			Kind: unitVote, Prog: h, User: u, Score: 1 + g.rng.Intn(10),
			Comment: fmt.Sprintf("perfbench vote %d of seed %d: user%03d on prog%05d", g.votes, g.seed, u, h),
		}
	}
}

// voteUnit returns the next fresh-pair vote, whatever the workload.
func (g *Generator) voteUnit() Unit {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.voteLocked()
}
