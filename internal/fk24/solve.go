package fk24

import (
	"fmt"

	"repro/internal/algkit"
	"repro/internal/bitio"
	"repro/internal/coloring"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Input is an OLDC instance, shaped like oldc.Input: an orientation, the
// color space, per-node lists with per-color defect budgets, and an initial
// m-coloring that seeds the bucket schedule.
type Input struct {
	// O is the arc orientation; defects are counted over out-neighbors.
	O *graph.Oriented
	// SpaceSize is |C|, the size of the global color space.
	SpaceSize int
	// Lists holds each node's color list with per-color defect budgets.
	Lists []coloring.NodeList
	// InitColors is a proper m-coloring (e.g. unique ids) driving buckets.
	InitColors []int
	// M is the size of the initial color space.
	M int
}

// Options controls the framework.
type Options struct {
	// Buckets is the schedule knob B: commits happen over B rounds, bucket
	// b = initColor mod B committing in round 3+b. 0 selects
	// DefaultBuckets; B = M is the paper's fully sequential schedule.
	Buckets int
	// Params is the parameter profile for the candidate families; the zero
	// value selects cover.Practical().
	Params cover.Params
	// SkipValidate disables the output validity check (used by ablations
	// that intentionally under-provision parameters).
	SkipValidate bool
	// NoFamilyCache disables the type-keyed family memoization cache, as
	// in oldc.Options.
	NoFamilyCache bool
}

func resolveParams(opts Options) cover.Params {
	if opts.Params.TauScale == 0 {
		return cover.Practical()
	}
	return opts.Params
}

// DefaultBuckets returns the default schedule width: 2β̂ + 2 buckets
// (capped at m), enough that a node shares each bucket with few neighbors
// in expectation over the initial coloring while keeping the round count
// O(β̂) rather than O(m).
func DefaultBuckets(o *graph.Oriented, m int) int {
	b := 2*algkit.MaxOutDegreePow2(o) + 2
	if m < b {
		b = m
	}
	if b < 1 {
		b = 1
	}
	return b
}

// spec is the resolved static instance the algorithm runs on.
type spec struct {
	o         *graph.Oriented
	spaceSize int
	m         int
	buckets   int
	lists     []coloring.NodeList
	init      []int
	tau       int
	kprime    int
	pr        cover.Params
	noCache   bool
}

// alg is the B+2-round bucketed framework (see the package comment for
// the schedule). Neighbor state is two-sided: commits are counted from all
// neighbors regardless of arc direction — a later-committing node avoiding
// an earlier committer's color is exactly what protects the earlier
// committer's out-defect budget — while the candidate-set anti-coordination
// covers the same-bucket neighbors that commit simultaneously.
type alg struct {
	spec  spec
	sink  faultReporter
	cache *cover.FamilyCache
	csr   algkit.OutCSR

	ownK  []*cover.CachedFamily
	cv    [][]int // chosen candidate set (sorted)
	cvDef [][]int32
	cvIdx []int

	// Same-bucket neighbor state (both directions), per node, in sender
	// order: the round-1 families and the round-2 candidate sets.
	sbFrom [][]int32
	sbFam  [][]*cover.CachedFamily
	sbSet  [][][]int

	// committed[v][j] counts committed neighbor colors equal to cv[v][j].
	committed [][]int32

	phi      []int
	round    int
	started  bool
	finished bool
}

func newAlg(sp spec) (*alg, error) {
	n := sp.o.N()
	a := &alg{
		spec:      sp,
		csr:       algkit.NewOutCSR(sp.o),
		ownK:      make([]*cover.CachedFamily, n),
		cv:        make([][]int, n),
		cvDef:     make([][]int32, n),
		cvIdx:     make([]int, n),
		sbFrom:    make([][]int32, n),
		sbFam:     make([][]*cover.CachedFamily, n),
		sbSet:     make([][][]int, n),
		committed: make([][]int32, n),
		phi:       make([]int, n),
	}
	if !sp.noCache {
		a.cache = cover.NewFamilyCache()
	}
	for v := 0; v < n; v++ {
		if sp.lists[v].Len() == 0 {
			return nil, fmt.Errorf("fk24: node %d has an empty list", v)
		}
		if c := sp.init[v]; c < 0 || c >= sp.m {
			return nil, fmt.Errorf("fk24: node %d initial color %d outside [0,%d)", v, c, sp.m)
		}
		a.ownK[v] = a.familyOf(sp.init[v], sp.lists[v].Colors)
		a.phi[v] = -1
	}
	return a, nil
}

// bucketOf maps an initial color to its commit bucket.
func (a *alg) bucketOf(initColor int) int { return initColor % a.spec.buckets }

// familyOf derives the deterministic candidate family of a type (initial
// color + list). As in oldc, the family is a pure function of the type, so
// senders transmit the type and every receiver re-derives — and the shared
// cache collapses re-derivations to once per distinct type.
func (a *alg) familyOf(initColor int, list []int) *cover.CachedFamily {
	ty := cover.Type{
		InitColor: initColor,
		List:      list,
		SetSize:   a.spec.pr.SetSize(1, a.spec.tau, len(list)),
		NumSets:   a.spec.kprime,
	}
	if a.cache == nil {
		return cover.NewCachedFamily(ty)
	}
	return a.cache.Get(ty)
}

func (a *alg) Outbox(v int, out *sim.Outbox) {
	switch {
	case a.round == 1:
		out.Broadcast(typeMsg{
			initColor:  a.spec.init[v],
			list:       a.spec.lists[v].Colors,
			mWidth:     bitio.WidthFor(a.spec.m),
			spaceSize:  a.spec.spaceSize,
			colorWidth: bitio.WidthFor(a.spec.spaceSize),
		})
	case a.round == 2:
		out.Broadcast(setMsg{index: a.cvIdx[v], width: bitio.WidthFor(a.spec.kprime)})
	default:
		if a.bucketOf(a.spec.init[v]) == a.round-3 {
			a.pickColor(v)
			out.Broadcast(commitMsg{color: a.phi[v], width: bitio.WidthFor(a.spec.spaceSize)})
		}
	}
}

func (a *alg) Inbox(v int, in []sim.Received) {
	switch {
	case a.round == 1:
		myBucket := a.bucketOf(a.spec.init[v])
		for _, msg := range in {
			m, ok := asTypeMsg(msg.Payload, a.spec.m, a.spec.spaceSize, a.sink)
			if !ok {
				continue
			}
			if a.bucketOf(m.initColor) != myBucket {
				continue
			}
			a.sbFrom[v] = append(a.sbFrom[v], int32(msg.From))
			a.sbFam[v] = append(a.sbFam[v], a.familyOf(m.initColor, m.list))
		}
		a.sbSet[v] = make([][]int, len(a.sbFrom[v]))
		sc := algkit.GetScratch()
		a.chooseCv(v, sc)
		algkit.PutScratch(sc)
		a.committed[v] = make([]int32, len(a.cv[v]))
	case a.round == 2:
		i := 0
		sb := a.sbFrom[v]
		for _, msg := range in {
			for i < len(sb) && sb[i] < int32(msg.From) {
				i++
			}
			if i >= len(sb) || sb[i] != int32(msg.From) {
				continue
			}
			m, ok := asSetMsg(msg.Payload, a.spec.kprime, a.sink)
			if !ok {
				continue
			}
			if fam := a.sbFam[v][i]; fam != nil && m.index < len(fam.Sets) {
				a.sbSet[v][i] = fam.Sets[m.index]
			}
		}
	default:
		if a.phi[v] >= 0 {
			return
		}
		for _, msg := range in {
			if m, ok := asCommitMsg(msg.Payload, a.spec.spaceSize, a.sink); ok {
				algkit.CountWindow(a.committed[v], a.cv[v], m.color, 0)
			}
		}
	}
}

// chooseCv picks the candidate set conflicting with the fewest same-bucket
// neighbor families (P1 of the framework), and extracts the defect budgets
// of its colors for the slack-aware commit rule. A node with no same-bucket
// neighbors keeps its full list: the restriction only buys anti-coordination
// against simultaneous committers, and the full list preserves the exact
// sequential pigeonhole guarantee — with B = m every bucket is
// conflict-free, so every node takes this branch and the validity proof of
// the paper's one-round step applies verbatim.
func (a *alg) chooseCv(v int, sc *algkit.Scratch) {
	own := a.ownK[v]
	if len(own.Sets) == 0 || len(a.sbFam[v]) == 0 {
		a.cv[v] = a.spec.lists[v].Colors
		a.cvIdx[v] = 0
	} else {
		d := algkit.Grow32(sc.D, len(own.Sets))
		sc.D = d
		for _, fam := range a.sbFam[v] {
			algkit.AccumulateConflicts(d, &sc.Kernel, own, fam, a.spec.tau, 0)
		}
		best := algkit.ConflictArgmin(d)
		a.cv[v] = own.Sets[best]
		a.cvIdx[v] = best
	}
	// Defects of the candidate colors: cv ⊆ list, both sorted ascending.
	l := a.spec.lists[v]
	defs := make([]int32, len(a.cv[v]))
	j := 0
	for i, x := range a.cv[v] {
		for j < len(l.Colors) && l.Colors[j] < x {
			j++
		}
		if j < len(l.Colors) && l.Colors[j] == x {
			defs[i] = int32(l.Defect[j])
		}
	}
	a.cvDef[v] = defs
}

// pickColor commits node v: among C_v, minimize the collision pressure
// relative to the color's defect budget — committed neighbor occurrences
// plus same-bucket candidate-set occurrences, minus d_v(x). Minimizing the
// slack rather than the raw count matters: a zero-budget color with count
// zero must lose to a big-budget color with a small count. When the
// schedule is fully sequential (B = m) and the instance satisfies the
// pigeonhole condition Σ_x (d_v(x)+1) > deg_out(v), some color has
// count ≤ d_v(x), i.e. minimum slack ≤ 0, and the output is a valid OLDC —
// that is the paper's one-round step. Coarser schedules charge same-bucket
// collisions against the budgets and are validated after the run.
func (a *alg) pickColor(v int) {
	cv := a.cv[v]
	cnt := a.committed[v]
	for _, cu := range a.sbSet[v] {
		if cu != nil {
			algkit.CountMerge(cnt, cv, cu)
		}
	}
	best := 0
	bestSlack := cnt[0] - a.cvDef[v][0]
	for j := 1; j < len(cv); j++ {
		if s := cnt[j] - a.cvDef[v][j]; s < bestSlack {
			bestSlack = s
			best = j
		}
	}
	a.phi[v] = cv[best]
}

func (a *alg) Done() bool {
	if !a.started {
		a.started = true
		a.round = 1
		return false
	}
	a.round++
	if a.round > a.spec.buckets+2 {
		a.finished = true
	}
	return a.finished
}

// MaxRounds returns the round budget Solve grants the schedule: B + 2
// scheduled rounds plus quiesce slack.
func MaxRounds(buckets int) int { return buckets + 4 }

// Solve runs the framework on eng and returns the coloring. The output is validated against the OLDC condition
// unless opts.SkipValidate is set.
func Solve(eng *sim.Engine, in Input, opts Options) (coloring.Assignment, sim.Stats, error) {
	n := in.O.N()
	if len(in.Lists) != n || len(in.InitColors) != n {
		return nil, sim.Stats{}, fmt.Errorf("fk24: instance shape mismatch: n=%d, %d lists, %d init colors", n, len(in.Lists), len(in.InitColors))
	}
	if in.M < 1 || in.SpaceSize < 1 {
		return nil, sim.Stats{}, fmt.Errorf("fk24: need m ≥ 1 and |C| ≥ 1 (got m=%d, |C|=%d)", in.M, in.SpaceSize)
	}
	pr := resolveParams(opts)
	b := opts.Buckets
	if b <= 0 {
		b = DefaultBuckets(in.O, in.M)
	}
	if b > in.M {
		b = in.M
	}
	tau := pr.Tau(1, in.SpaceSize, in.M)
	sp := spec{
		o:         in.O,
		spaceSize: in.SpaceSize,
		m:         in.M,
		buckets:   b,
		lists:     in.Lists,
		init:      in.InitColors,
		tau:       tau,
		kprime:    pr.KPrime(1, tau),
		pr:        pr,
		noCache:   opts.NoFamilyCache,
	}
	a, err := newAlg(sp)
	if err != nil {
		return nil, sim.Stats{}, err
	}
	a.sink = eng
	obs.EmitPhase(eng.Tracer(), "fk24/buckets", obs.Attrs{"buckets": b, "tau": tau, "kprime": sp.kprime})
	stats, err := eng.Run(a, MaxRounds(b))
	if err != nil {
		return nil, stats, err
	}
	phi := coloring.Assignment(a.phi)
	for v, c := range phi {
		if c < 0 {
			return nil, stats, fmt.Errorf("fk24: node %d left uncolored", v)
		}
	}
	if !opts.SkipValidate {
		if err := coloring.CheckOLDC(in.O, in.Lists, phi); err != nil {
			return nil, stats, fmt.Errorf("fk24: Solve output invalid: %w", err)
		}
	}
	return phi, stats, nil
}
