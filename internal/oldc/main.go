package oldc

import (
	"fmt"
	"math"

	"repro/internal/algkit"
	"repro/internal/bitio"
	"repro/internal/coloring"
	"repro/internal/cover"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Solve implements the paper's main technical result (Theorem 1.1 via
// Lemma 3.8): an O(log β)-round deterministic OLDC algorithm for instances
// satisfying the square-sum condition
//
//	Σ_{x∈L_v} (d_v(x)+1)² ≥ α·β_v²·κ(β,C,m).
//
// The algorithm has three stages:
//
//  1. γ-class selection: each node derives per-class masses λ_{v,μ}
//     (cases I/II of the Lemma 3.8 proof) and the nodes solve an auxiliary
//     *generalized* OLDC instance over the color space [h] with gap
//     g = ⌊log h⌋ using Lemma 3.6 (SolveMulti), which assigns every node a
//     γ-class i_v such that few out-neighbors pick a nearby class.
//  2. Phase I (ascending classes): nodes remove "bad" colors that already
//     appear in too many lower-class candidate sets, derive their P2
//     candidate family from their type, and choose a candidate set C_v
//     conflicting with few same-class out-neighbors.
//  3. Phase II (descending classes): nodes pick the least-loaded color of
//     C_v, counting exact colors of higher classes and candidate sets of
//     non-ignored same-class out-neighbors.
func Solve(eng *sim.Engine, in Input, opts Options) (coloring.Assignment, sim.Stats, error) {
	p, err := prepareSolve(eng, in, opts)
	if err != nil {
		return nil, p.prep, err
	}
	stats, err := eng.RunFrom(p.alg, 0, p.MaxRounds(), p.prep)
	if err != nil {
		publishCacheStats(eng, p.alg.cache)
		return nil, stats, err
	}
	return p.Finish(stats)
}

// twoPhaseMaxRounds is the round budget Solve grants the Lemma 3.7
// two-phase stage (3h scheduled rounds plus quiesce slack).
func twoPhaseMaxRounds(h int) int { return 3*h + 4 }

// prepareTwoPhase runs Solve's deterministic preparation — the Lemma 3.8
// local case analysis and the γ-class selection (auxiliary generalized
// OLDC solve) — and returns the ready-to-run two-phase algorithm plus the
// statistics spent so far. It is factored out of Solve for checkpoint
// resume: preparation is a pure function of (Input, Options), so a
// supervisor rebuilds the algorithm by re-preparing and then restoring the
// checkpointed two-phase state into it (see docs/RECOVERY.md).
func prepareTwoPhase(eng *sim.Engine, in Input, opts Options) (*twoPhaseAlg, sim.Stats, error) {
	if opts.Gap != 0 {
		return nil, sim.Stats{}, fmt.Errorf("oldc: Solve only handles gap 0 (Lemma 3.6 handles general gaps)")
	}
	pr := opts.Params.OrPractical()
	o := in.O
	n := o.N()
	h := classCount(o)
	hPrime := hPrimeFor(h)
	tau := pr.Tau(h, in.SpaceSize, in.M)
	tauBar := pr.Tau(hPrime, h, in.M)
	kprime := pr.KPrime(h, tau)

	var total sim.Stats

	// --- Stage 1: local case analysis and γ-class selection ---
	// The loop is sequential, so one reused scratch serves every node; the
	// candidate lists are views of in.Lists or of its arena, and the aux
	// lists views of one more arena.
	sel := make([]classSelection, n)
	auxLists := make([]coloring.NodeList, n)
	sc := newAnalyzeScratch(h)
	trivial := true
	for v := 0; v < n; v++ {
		s, err := analyzeNodeInto(sc, o.OutDegree(v), in.Lists[v], h, hPrime, tauBar, pr.Alpha)
		if err != nil {
			return nil, total, fmt.Errorf("oldc: node %d: %w", v, err)
		}
		sel[v] = s
		if len(s.cands) != 1 {
			trivial = false
		}
	}
	auxArena := make([]int, 0, 2*len(sc.cands))
	for v := 0; v < n; v++ {
		k := len(sel[v].cands)
		base := len(auxArena)
		auxArena = auxArena[:base+2*k]
		colors, defs := auxArena[base:base+k:base+k], auxArena[base+k:base+2*k:base+2*k]
		for i, c := range sel[v].cands {
			colors[i] = c.class - 1 // 0-based for the aux color space
			defs[i] = c.delta
		}
		auxLists[v] = coloring.NodeList{Colors: colors, Defect: defs}
	}
	classes := make([]int, n)
	if trivial {
		for v := 0; v < n; v++ {
			classes[v] = auxLists[v].Colors[0] + 1
		}
	} else {
		gAux := 0
		for (1 << uint(gAux+1)) <= h {
			gAux++
		}
		obs.EmitPhase(eng.Tracer(), "oldc/class-selection", obs.Attrs{"h": h, "gap": gAux})
		auxIn := Input{O: o, SpaceSize: h, Lists: auxLists, InitColors: in.InitColors, M: in.M}
		auxPhi, auxStats, err := SolveMulti(eng, auxIn, Options{Params: pr, Gap: gAux, SkipValidate: true})
		total = total.Add(auxStats)
		if err != nil {
			return nil, total, fmt.Errorf("oldc: γ-class selection failed: %w", err)
		}
		for v := 0; v < n; v++ {
			classes[v] = auxPhi[v] + 1
		}
	}

	// --- Stages 2 and 3: the two-phase algorithm of Lemma 3.7 ---
	spec := basicSpec{
		o:          o,
		spaceSize:  in.SpaceSize,
		m:          in.M,
		initColors: in.InitColors,
		lists:      make([][]int, n),
		defect:     make([]int, n),
		gclass:     classes,
		h:          h,
		gap:        0,
		tau:        tau,
		kprime:     kprime,
		pr:         pr,
	}
	for v := 0; v < n; v++ {
		list, d := sel[v].listForClass(classes[v])
		if len(list) == 0 {
			return nil, total, fmt.Errorf("oldc: node %d has no colors for chosen class %d", v, classes[v])
		}
		spec.lists[v] = list
		spec.defect[v] = d
	}
	alg := newTwoPhase(spec)
	alg.sink = eng
	return alg, total, nil
}

// hPrimeFor returns h′ = 4^⌈log₄ log₂(8h)⌉ from Lemma 3.8.
func hPrimeFor(h int) int {
	l := math.Log2(8 * float64(h))
	e := math.Ceil(math.Log2(l) / 2)
	if e < 1 {
		e = 1
	}
	return int(math.Pow(4, e))
}

// classSelection is the per-node outcome of the Lemma 3.8 case analysis:
// the class candidates, ascending by 1-based γ-class. The slices may alias
// the input list or a shared per-solve arena (analyzeScratch) and must not
// be mutated.
type classSelection struct {
	cands []classCandidate
}

type classCandidate struct {
	class  int   // 1-based γ-class this candidate covers
	delta  int   // δ_{v,i}: tolerated out-neighbors in nearby classes
	colors []int // L_{v,μ_v(i)}
	defect int   // d_v for those colors
}

// listForClass returns the colors and defect of the candidate for γ-class
// i, or no colors if i is not a candidate. The γ-class solve picks each
// node's class from its own aux list, so the chosen class is always a
// candidate.
func (s classSelection) listForClass(i int) ([]int, int) {
	for _, c := range s.cands {
		if c.class == i {
			return c.colors, c.defect
		}
	}
	return nil, 0
}

// analyzePart is one L_{v,μ} of the Lemma 3.8 partition.
type analyzePart struct {
	count  int
	minDef int
	mass   float64
	class  int   // class of the candidate this part becomes (0: none)
	colors []int // the part's colors, filled for candidate parts only
}

// analyzeScratch carries the reusable and arena state of the sequential
// stage-1 loop: the per-node μ memo and part table are recycled, while
// copied candidate color lists and candidate records — which outlive the
// loop as views held by classSelection — are bump-allocated from shared
// backing slices instead of per-node allocations.
type analyzeScratch struct {
	parts  []analyzePart    // indexed by μ ∈ [1, h]; reused per node
	colors []int            // arena: copied candidate color lists (persist)
	cands  []classCandidate // arena: candidate records (persist)
	// muOf memoizes the node's μ per defect, direct-mapped by d mod 64
	// (mu 0 = empty; μ ≥ 1): lists hold thousands of colors but few
	// distinct defects, and μ depends only on the node and the defect.
	muOf [64]struct {
		d  int
		mu uint8
	}
}

// newAnalyzeScratch returns a scratch for h classes.
func newAnalyzeScratch(h int) *analyzeScratch {
	return &analyzeScratch{parts: make([]analyzePart, h+1)}
}

// reserveColors extends the color arena by n entries and returns the new
// region. Earlier views keep their (possibly superseded) backing on growth,
// which is safe because regions are never mutated once filled.
func (sc *analyzeScratch) reserveColors(n int) []int {
	base := len(sc.colors)
	if cap(sc.colors) < base+n {
		grown := make([]int, base, 2*(base+n))
		copy(grown, sc.colors)
		sc.colors = grown
	}
	sc.colors = sc.colors[:base+n]
	return sc.colors[base : base+n]
}

// scale returns the Lemma 3.8 scale μ of a color with defect d,
// memoized per defect.
func (sc *analyzeScratch) scale(d int, rv float64, h int) uint8 {
	e := &sc.muOf[uint(d)%uint(len(sc.muOf))]
	if e.mu == 0 || e.d != d {
		e.d, e.mu = d, scaleOf(rv, float64((d+1)*(d+1)), h)
	}
	return e.mu
}

// analyzeNodeInto performs the local computation of Lemma 3.8: it
// partitions the list by the scale μ with (d+1)² ≈ R_v/4^μ, computes the
// mass ratios λ_{v,μ}, and produces the class candidates of Case I /
// Case II. Only the candidates' parts get colors: a part holding the whole
// list is a view of l.Colors, and the others are copied into the arena in
// one pass. Solve's sequential loop passes one reused scratch; a fresh one
// is newAnalyzeScratch(h).
func analyzeNodeInto(sc *analyzeScratch, beta int, l coloring.NodeList, h, hPrime, tauBar, alpha int) (classSelection, error) {
	if l.Len() == 0 {
		return classSelection{}, fmt.Errorf("empty color list")
	}
	betaHat := algkit.NextPow2(beta)
	rv := float64(alpha) * float64(betaHat) * float64(betaHat) * float64(tauBar) * float64(hPrime) * float64(hPrime)
	parts := sc.parts[:h+1]
	clear(parts)
	clear(sc.muOf[:])
	var totalMass float64
	for _, d := range l.Defect {
		w := float64((d + 1) * (d + 1))
		p := &parts[sc.scale(d, rv, h)]
		if p.count == 0 || d < p.minDef {
			p.minDef = d
		}
		p.count++
		p.mass += w
		totalMass += w
	}
	candBase := len(sc.cands)
	// Case II: some λ ≥ 1/4 (scan in ascending μ order for determinism).
	for mu := 1; mu <= h; mu++ {
		p := &parts[mu]
		if p.count == 0 {
			continue
		}
		lam := lambdaOf(p.mass, totalMass, h)
		if lam >= 0.25 {
			delta := int(math.Sqrt(rv) / 4)
			p.class = clamp(mu, 1, h)
			sc.cands = append(sc.cands, classCandidate{class: p.class, delta: delta, defect: p.minDef})
			return sc.selection(candBase, parts, l, rv, h), nil
		}
	}
	// Case I: map each surviving μ through f_v(μ) = μ − r + 2, keeping the
	// first (smallest μ) winner per class.
	for mu := 1; mu <= h; mu++ {
		p := &parts[mu]
		if p.count == 0 {
			continue
		}
		lam := lambdaOf(p.mass, totalMass, h)
		if lam == 0 {
			continue
		}
		r := int(math.Round(-math.Log(lam) / math.Log(4)))
		f := mu - r + 2
		if f < 1 || f > h {
			continue
		}
		if candTaken(sc.cands[candBase:], f) {
			continue // a smaller μ already claimed this class
		}
		delta := int(math.Floor(math.Sqrt(lam * rv)))
		p.class = f
		sc.cands = insertCandidate(sc.cands, candBase, classCandidate{
			class: f, delta: delta, defect: p.minDef,
		})
	}
	if len(sc.cands) == candBase {
		// Degenerate (tiny instances under scaled parameters): fall back to
		// the heaviest part at its own scale.
		bestMu, bestMass := 0, -1.0
		for mu := 1; mu <= h; mu++ {
			if parts[mu].count > 0 && parts[mu].mass > bestMass {
				bestMu, bestMass = mu, parts[mu].mass
			}
		}
		p := &parts[bestMu]
		p.class = clamp(bestMu, 1, h)
		sc.cands = append(sc.cands, classCandidate{
			class:  p.class,
			delta:  int(math.Floor(math.Sqrt(p.mass))),
			defect: p.minDef,
		})
	}
	return sc.selection(candBase, parts, l, rv, h), nil
}

// selection gives the node's candidates, sc.cands[base:], the colors of
// the parts that claimed their classes and returns them. A part holding
// the whole list is a capacity-capped view of l.Colors; the other
// candidate parts are copied into the arena in one pass over the list,
// which keeps list order.
func (sc *analyzeScratch) selection(base int, parts []analyzePart, l coloring.NodeList, rv float64, h int) classSelection {
	copied := 0
	for mu := range parts {
		if p := &parts[mu]; p.class != 0 {
			if p.count == l.Len() {
				p.colors = l.Colors[:p.count:p.count]
			} else {
				copied += p.count
			}
		}
	}
	if copied > 0 {
		region := sc.reserveColors(copied)
		off := 0
		for mu := range parts {
			if p := &parts[mu]; p.class != 0 {
				p.colors = region[off : off : off+p.count]
				off += p.count
			}
		}
		for i, x := range l.Colors {
			if p := &parts[sc.scale(l.Defect[i], rv, h)]; p.class != 0 {
				p.colors = append(p.colors, x)
			}
		}
	}
	cands := sc.cands[base:len(sc.cands):len(sc.cands)]
	for i := range cands {
		for mu := range parts {
			if parts[mu].class == cands[i].class {
				cands[i].colors = parts[mu].colors
				break
			}
		}
	}
	return classSelection{cands: cands}
}

// scaleOf returns the Lemma 3.8 scale μ ∈ [1, h] of a color with weight
// w = (d+1)²: the μ with w ≈ rv/4^μ.
func scaleOf(rv, w float64, h int) uint8 {
	mu := int(math.Round(math.Log(rv/w) / math.Log(4)))
	if mu < 1 {
		mu = 1
	}
	if mu > h {
		mu = h
	}
	return uint8(mu)
}

// candTaken reports whether a candidate for class f is already present.
func candTaken(cands []classCandidate, f int) bool {
	for _, c := range cands {
		if c.class == f {
			return true
		}
	}
	return false
}

// insertCandidate appends c to the arena keeping the node's tail (from
// base) ascending by class.
func insertCandidate(cands []classCandidate, base int, c classCandidate) []classCandidate {
	cands = append(cands, c)
	for i := len(cands) - 1; i > base && cands[i].class < cands[i-1].class; i-- {
		cands[i], cands[i-1] = cands[i-1], cands[i]
	}
	return cands
}

func lambdaOf(mass, total float64, h int) float64 {
	ratio := mass / total
	if ratio < 1/(2*float64(h)) {
		return 0
	}
	// 4^⌊log₄ ratio⌋
	return math.Pow(4, math.Floor(math.Log(ratio)/math.Log(4)))
}

func clamp(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// --- The two-phase algorithm of Lemma 3.7 ---

// twoPhaseAlg runs 3h rounds:
//
//	rounds 2i−1, 2i (i = 1..h):       Phase I iteration of class i
//	round 2h + 1 + (h−i):             Phase II pick of class i
//
// Nodes of class i remove colors occurring in more than d_v/4 lower-class
// candidate sets before deriving their own candidate family.
//
// Bad-color-removal output lives in one pre-sized per-solve arena (listBuf)
// carved into disjoint per-node regions, so the concurrent Outbox callbacks
// write without synchronization or allocation.
type twoPhaseAlg struct {
	nbrRecord
	curList [][]int // list after bad-color removal (set at the class round)
	listBuf []int   // arena backing curList; node v owns listOff[v]:listOff[v+1]
	listOff []int32
}

func newTwoPhase(spec basicSpec) *twoPhaseAlg {
	n := spec.o.N()
	a := &twoPhaseAlg{
		nbrRecord: newNbrRecord(spec),
		curList:   make([][]int, n),
		listOff:   make([]int32, n+1),
	}
	total := 0
	for v := 0; v < n; v++ {
		total += len(spec.lists[v])
		a.listOff[v+1] = int32(total)
	}
	a.listBuf = make([]int, total)
	return a
}

func (a *twoPhaseAlg) Outbox(v int, out *sim.Outbox) {
	h := a.spec.h
	r := a.round
	switch {
	case r <= 2*h:
		class := (r + 1) / 2
		if a.spec.gclass[v] != class {
			return
		}
		if r%2 == 1 {
			// Round A: remove bad colors and announce the type.
			a.curList[v] = a.removeBadColors(v)
			out.Broadcast(a.typePayload(v, a.curList[v]))
		} else {
			// Round B: announce the chosen candidate set by its index.
			out.Broadcast(sim.UintPayload{Value: uint64(a.cvIdx[v]), Width: bitio.WidthFor(a.spec.kprime)})
		}
	default:
		if a.pickedAt[v] == r-1 {
			out.Broadcast(sim.UintPayload{Value: uint64(a.phi[v]), Width: bitio.WidthFor(a.spec.spaceSize)})
		}
	}
}

// removeBadColors drops every color that appears in more than d_v/4
// lower-class candidate sets. The counts are computed on demand from the
// already-received lower-class C_u announcements — every lower class
// finishes its round B before this node's round A, so the scan sees
// exactly the sets the former incremental counter saw. Each set element is
// located in the (much longer) list by binary search, keeping the cost at
// O(outdeg · |C_u| · log |L_v|) instead of O(outdeg · |L_v|); the
// surviving colors land in the node's disjoint arena region.
func (a *twoPhaseAlg) removeBadColors(v int) []int {
	lst := a.spec.lists[v]
	class := a.spec.gclass[v]
	sc := algkit.GetScratch()
	cnt := algkit.Grow32(sc.Cnt, len(lst))
	sc.Cnt = cnt
	for p := a.csr.Off[v]; p < a.csr.Off[v+1]; p++ {
		if a.nbrCv[p] == nil || a.nbrType[p].gclass >= class {
			continue
		}
		for _, x := range a.nbrCv[p] {
			algkit.CountWindow(cnt, lst, x, 0)
		}
	}
	limit := int32(a.spec.defect[v] / 4)
	out := a.listBuf[a.listOff[v]:a.listOff[v]:a.listOff[v+1]]
	for j, x := range lst {
		if cnt[j] <= limit {
			out = append(out, x)
		}
	}
	if len(out) == 0 {
		// All colors bad (under-provisioned instance): keep the least bad.
		bestJ := 0
		for j := range lst {
			if cnt[j] < cnt[bestJ] {
				bestJ = j
			}
		}
		out = append(out, lst[bestJ])
	}
	algkit.PutScratch(sc)
	return out
}

func (a *twoPhaseAlg) Inbox(v int, in []sim.Received) {
	h := a.spec.h
	r := a.round
	switch {
	case r <= 2*h:
		class := (r + 1) / 2
		if r%2 == 1 {
			// Round A of class `class`: store sender types and derive their
			// families (each sender announces its type exactly once).
			a.recvTypes(v, in)
			if a.spec.gclass[v] == class {
				// This node's own family and P1 choice against same-class
				// out-neighbors.
				a.ownK[v] = a.familyOf(a.typeOf(v, a.curList[v]))
				sc := algkit.GetScratch()
				a.chooseCv(v, class, sc)
				algkit.PutScratch(sc)
			}
		} else {
			// Round B: reconstruct announced candidate sets.
			a.recvSets(v, in)
			if class == h && a.spec.gclass[v] == h {
				sc := algkit.GetScratch()
				a.pickColor(v, sc)
				algkit.PutScratch(sc)
			}
		}
	default:
		a.recvColors(v, in)
		cur := h - (r - (2*h + 1))
		if cur >= 1 && cur < h && a.spec.gclass[v] == cur {
			sc := algkit.GetScratch()
			a.pickColor(v, sc)
			algkit.PutScratch(sc)
		}
	}
}

// chooseCv picks C_v ∈ K_v minimizing the number of same-class
// out-neighbors with a τ-conflicting candidate family (Phase I),
// recording the chosen index for the round-B announcement. The per-set
// conflict counts come from one batched FamilyConflictMask call per
// same-class neighbor.
func (a *twoPhaseAlg) chooseCv(v, class int, sc *algkit.Scratch) {
	own := a.ownK[v]
	if len(own.Sets) == 0 {
		a.cv[v] = a.curList[v]
		a.cvIdx[v] = 0
		return
	}
	d := algkit.Grow32(sc.D, len(own.Sets))
	sc.D = d
	for p := a.csr.Off[v]; p < a.csr.Off[v+1]; p++ {
		fam := a.nbrFam[p]
		if fam == nil || a.nbrType[p].gclass != class {
			continue
		}
		algkit.AccumulateConflicts(d, &sc.Kernel, own, fam, a.spec.tau, 0)
	}
	bestIdx := algkit.ConflictArgmin(d)
	a.cv[v] = own.Sets[bestIdx]
	a.cvIdx[v] = bestIdx
}

// pickColor finalizes v's color (Phase II): counts exact colors of higher
// classes and candidate-set occurrences of non-ignored same-class
// out-neighbors. The ignore test depends only on the neighbor: C_v's
// Filter is loaded once, and probing each same-class neighbor set through
// it both decides the test (stopping at the τ-th common color) and fills
// the per-color count buffer.
func (a *twoPhaseAlg) pickColor(v int, sc *algkit.Scratch) {
	class := a.spec.gclass[v]
	cv := a.cv[v]
	cnt := algkit.Grow32(sc.Cnt, len(cv))
	sc.Cnt = cnt
	sc.Filter.Load(cv)
	for p := a.csr.Off[v]; p < a.csr.Off[v+1]; p++ {
		if a.nbrCv[p] != nil && a.nbrType[p].gclass == class {
			sc.CountBelow(cnt, a.nbrCv[p], a.spec.tau)
		}
		if xu := a.nbrColor[p]; xu >= 0 {
			if j, ok := sc.Filter.Pos(int(xu)); ok {
				cnt[j]++
			}
		}
	}
	bestX := -1
	bestF := int32(math.MaxInt32)
	for j, x := range cv {
		if cnt[j] < bestF {
			bestF = cnt[j]
			bestX = x
		}
	}
	if bestX == -1 {
		bestX = a.spec.lists[v][0]
	}
	a.phi[v] = bestX
	a.pickedAt[v] = a.round
}

// ignored reports whether a same-class out-neighbor's candidate set
// conflicts too heavily with C_v (it is then outside N_{i,*} and accounted
// against the d_v/4 ignore budget). pickColor evaluates the same rule
// inside its counting probe; this form is the documented reference, and
// only tests call it.
func (a *twoPhaseAlg) ignored(v int, cu []int) bool {
	return cover.ConflictWeight(a.cv[v], cu, 0) >= a.spec.tau
}

func (a *twoPhaseAlg) Done() bool { return a.done(3 * a.spec.h) }
