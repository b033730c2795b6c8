package oldc

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bitio"
	"repro/internal/coloring"
	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/sim"
)

// This file pins the restructured algorithms (CSR neighbor state, family
// cache, bitset conflict kernels) to the seed implementations bit for bit:
// same colorings, same sim.Stats, across worker counts. The reference
// algorithms below replicate the seed semantics exactly — map-keyed
// neighbor state, a fresh cover.Family derivation per familyOf call, the
// slices.Equal rescan for the announced set index, and slice-based conflict
// kernels.

// refBasicAlg is the seed basic algorithm (Section 3.2.3).
type refBasicAlg struct {
	spec    basicSpec
	reslist [][]int
	ownK    [][][]int
	cv      [][]int

	nbrType  []map[int]typeInfo
	nbrCv    []map[int][]int
	nbrColor []map[int]int

	phi      []int
	pickedAt []int
	round    int
	started  bool
	finished bool
}

func newRefBasicAlg(spec basicSpec) (*refBasicAlg, error) {
	n := spec.o.N()
	a := &refBasicAlg{
		spec:     spec,
		reslist:  make([][]int, n),
		ownK:     make([][][]int, n),
		cv:       make([][]int, n),
		nbrType:  make([]map[int]typeInfo, n),
		nbrCv:    make([]map[int][]int, n),
		nbrColor: make([]map[int]int, n),
		phi:      make([]int, n),
		pickedAt: make([]int, n),
	}
	for v := 0; v < n; v++ {
		if len(spec.lists[v]) == 0 {
			return nil, fmt.Errorf("oldc: node %d has an empty list", v)
		}
		if spec.gclass[v] < 1 || spec.gclass[v] > spec.h {
			return nil, fmt.Errorf("oldc: node %d has γ-class %d outside [1,%d]", v, spec.gclass[v], spec.h)
		}
		_, res := cover.BestResidue(spec.lists[v], spec.gap)
		a.reslist[v] = res
		a.ownK[v] = a.familyOf(typeInfo{
			initColor: spec.initColors[v],
			gclass:    spec.gclass[v],
			defect:    spec.defect[v],
			list:      res,
		})
		a.nbrType[v] = make(map[int]typeInfo)
		a.nbrCv[v] = make(map[int][]int)
		a.nbrColor[v] = make(map[int]int)
		a.phi[v] = -1
		a.pickedAt[v] = -1
	}
	return a, nil
}

func (a *refBasicAlg) familyOf(t typeInfo) [][]int {
	setSize := a.spec.pr.SetSize(t.gclass, a.spec.tau, len(t.list))
	return cover.Family(cover.Type{
		InitColor: t.initColor,
		List:      t.list,
		SetSize:   setSize,
		NumSets:   a.spec.kprime,
	})
}

func (a *refBasicAlg) Outbox(v int, out *sim.Outbox) {
	switch {
	case a.round == 1:
		out.Broadcast(typeMsg{
			initColor: a.spec.initColors[v],
			gclass:    a.spec.gclass[v],
			defect:    a.spec.defect[v],
			list:      a.reslist[v],
			mWidth:    bitio.WidthFor(a.spec.m),
			hWidth:    bitio.WidthFor(a.spec.h + 1),
			spaceSize: a.spec.spaceSize,
		})
	case a.round == 2:
		idx := 0
		for i, c := range a.ownK[v] {
			if slices.Equal(c, a.cv[v]) {
				idx = i
				break
			}
		}
		out.Broadcast(sim.UintPayload{Value: uint64(idx), Width: bitio.WidthFor(a.spec.kprime)})
	default:
		if a.pickedAt[v] == a.round-1 {
			out.Broadcast(sim.UintPayload{Value: uint64(a.phi[v]), Width: bitio.WidthFor(a.spec.spaceSize)})
		}
	}
}

func (a *refBasicAlg) Inbox(v int, in []sim.Received) {
	switch {
	case a.round == 1:
		for _, msg := range in {
			if !a.spec.o.HasArc(v, msg.From) {
				continue
			}
			m := msg.Payload.(typeMsg)
			a.nbrType[v][msg.From] = typeInfo{initColor: m.initColor, gclass: m.gclass, defect: m.defect, list: m.list}
		}
		a.chooseCv(v)
	case a.round == 2:
		for _, msg := range in {
			if !a.spec.o.HasArc(v, msg.From) {
				continue
			}
			m := msg.Payload.(sim.UintPayload)
			ku := a.familyOf(a.nbrType[v][msg.From])
			if int(m.Value) < len(ku) {
				a.nbrCv[v][msg.From] = ku[m.Value]
			}
		}
		if a.spec.gclass[v] == a.spec.h {
			a.pickColor(v)
		}
	default:
		for _, msg := range in {
			if m, ok := msg.Payload.(sim.UintPayload); ok && a.spec.o.HasArc(v, msg.From) {
				a.nbrColor[v][msg.From] = int(m.Value)
			}
		}
		cur := a.spec.h - (a.round - 2)
		if a.spec.gclass[v] == cur {
			a.pickColor(v)
		}
	}
}

func (a *refBasicAlg) chooseCv(v int) {
	var fams [][][]int
	for _, t := range a.nbrType[v] {
		if t.gclass <= a.spec.gclass[v] {
			fams = append(fams, a.familyOf(t))
		}
	}
	best := -1
	bestD := int(^uint(0) >> 1)
	for _, c := range a.ownK[v] {
		d := 0
		for _, fam := range fams {
			for _, cu := range fam {
				if cover.TauGConflict(c, cu, a.spec.tau, a.spec.gap) {
					d++
					break
				}
			}
		}
		if d < bestD {
			bestD = d
			a.cv[v] = c
			best = 0
		}
	}
	if best == -1 {
		a.cv[v] = a.reslist[v]
	}
}

func (a *refBasicAlg) pickColor(v int) {
	bestX := -1
	bestF := int(^uint(0) >> 1)
	for _, x := range a.cv[v] {
		f := 0
		for u, cu := range a.nbrCv[v] {
			if a.nbrType[v][u].gclass <= a.spec.gclass[v] {
				f += cover.MuG(x, cu, a.spec.gap)
			}
		}
		for _, xu := range a.nbrColor[v] {
			if absInt(xu-x) <= a.spec.gap {
				f++
			}
		}
		if f < bestF {
			bestF = f
			bestX = x
		}
	}
	if bestX == -1 {
		bestX = a.reslist[v][0]
	}
	a.phi[v] = bestX
	a.pickedAt[v] = a.round
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func (a *refBasicAlg) Done() bool {
	if !a.started {
		a.started = true
		a.round = 1
		return false
	}
	a.round++
	if a.round > a.spec.h+1 {
		a.finished = true
	}
	return a.finished
}

func refRunBasic(eng *sim.Engine, spec basicSpec) ([]int, sim.Stats, error) {
	alg, err := newRefBasicAlg(spec)
	if err != nil {
		return nil, sim.Stats{}, err
	}
	stats, err := eng.Run(alg, spec.h+3)
	if err != nil {
		return nil, stats, err
	}
	for v, c := range alg.phi {
		if c < 0 {
			return nil, stats, fmt.Errorf("oldc: node %d left uncolored", v)
		}
	}
	return alg.phi, stats, nil
}

// refTwoPhaseAlg is the seed two-phase algorithm (Lemma 3.7).
type refTwoPhaseAlg struct {
	spec    basicSpec
	curList [][]int
	ownK    [][][]int
	cv      [][]int

	nbrType  []map[int]typeInfo
	nbrCv    []map[int][]int
	nbrColor []map[int]int

	lowerCuCount []map[int]int

	phi      []int
	pickedAt []int
	round    int
	started  bool
	finished bool
}

func newRefTwoPhase(spec basicSpec) *refTwoPhaseAlg {
	n := spec.o.N()
	a := &refTwoPhaseAlg{
		spec:         spec,
		curList:      make([][]int, n),
		ownK:         make([][][]int, n),
		cv:           make([][]int, n),
		nbrType:      make([]map[int]typeInfo, n),
		nbrCv:        make([]map[int][]int, n),
		nbrColor:     make([]map[int]int, n),
		lowerCuCount: make([]map[int]int, n),
		phi:          make([]int, n),
		pickedAt:     make([]int, n),
	}
	for v := 0; v < n; v++ {
		a.nbrType[v] = map[int]typeInfo{}
		a.nbrCv[v] = map[int][]int{}
		a.nbrColor[v] = map[int]int{}
		a.lowerCuCount[v] = map[int]int{}
		a.phi[v] = -1
		a.pickedAt[v] = -1
	}
	return a
}

func (a *refTwoPhaseAlg) familyOf(t typeInfo) [][]int {
	setSize := a.spec.pr.SetSize(t.gclass, a.spec.tau, len(t.list))
	return cover.Family(cover.Type{
		InitColor: t.initColor,
		List:      t.list,
		SetSize:   setSize,
		NumSets:   a.spec.kprime,
	})
}

func (a *refTwoPhaseAlg) Outbox(v int, out *sim.Outbox) {
	h := a.spec.h
	r := a.round
	switch {
	case r <= 2*h:
		class := (r + 1) / 2
		if a.spec.gclass[v] != class {
			return
		}
		if r%2 == 1 {
			a.curList[v] = a.removeBadColors(v)
			out.Broadcast(typeMsg{
				initColor: a.spec.initColors[v],
				gclass:    a.spec.gclass[v],
				defect:    a.spec.defect[v],
				list:      a.curList[v],
				mWidth:    bitio.WidthFor(a.spec.m),
				hWidth:    bitio.WidthFor(a.spec.h + 1),
				spaceSize: a.spec.spaceSize,
			})
		} else {
			idx := 0
			for i, c := range a.ownK[v] {
				if slices.Equal(c, a.cv[v]) {
					idx = i
					break
				}
			}
			out.Broadcast(sim.UintPayload{Value: uint64(idx), Width: bitio.WidthFor(a.spec.kprime)})
		}
	default:
		if a.pickedAt[v] == r-1 {
			out.Broadcast(sim.UintPayload{Value: uint64(a.phi[v]), Width: bitio.WidthFor(a.spec.spaceSize)})
		}
	}
}

func (a *refTwoPhaseAlg) removeBadColors(v int) []int {
	limit := a.spec.defect[v] / 4
	var out []int
	for _, x := range a.spec.lists[v] {
		if a.lowerCuCount[v][x] <= limit {
			out = append(out, x)
		}
	}
	if len(out) == 0 {
		bestX, bestC := a.spec.lists[v][0], math.MaxInt32
		for _, x := range a.spec.lists[v] {
			if c := a.lowerCuCount[v][x]; c < bestC {
				bestX, bestC = x, c
			}
		}
		out = []int{bestX}
	}
	return out
}

func (a *refTwoPhaseAlg) Inbox(v int, in []sim.Received) {
	h := a.spec.h
	r := a.round
	switch {
	case r <= 2*h:
		class := (r + 1) / 2
		if r%2 == 1 {
			for _, msg := range in {
				if !a.spec.o.HasArc(v, msg.From) {
					continue
				}
				m, ok := msg.Payload.(typeMsg)
				if !ok {
					continue
				}
				a.nbrType[v][msg.From] = typeInfo{initColor: m.initColor, gclass: m.gclass, defect: m.defect, list: m.list}
			}
			if a.spec.gclass[v] == class {
				a.ownK[v] = a.familyOf(typeInfo{
					initColor: a.spec.initColors[v],
					gclass:    class,
					defect:    a.spec.defect[v],
					list:      a.curList[v],
				})
				a.chooseCv(v, class)
			}
		} else {
			for _, msg := range in {
				if !a.spec.o.HasArc(v, msg.From) {
					continue
				}
				m, ok := msg.Payload.(sim.UintPayload)
				if !ok {
					continue
				}
				t, have := a.nbrType[v][msg.From]
				if !have {
					continue
				}
				ku := a.familyOf(t)
				if int(m.Value) < len(ku) {
					cu := ku[m.Value]
					a.nbrCv[v][msg.From] = cu
					if t.gclass < a.spec.gclass[v] {
						for _, x := range cu {
							a.lowerCuCount[v][x]++
						}
					}
				}
			}
			if class == h && a.spec.gclass[v] == h {
				a.pickColor(v)
			}
		}
	default:
		for _, msg := range in {
			if m, ok := msg.Payload.(sim.UintPayload); ok && a.spec.o.HasArc(v, msg.From) {
				a.nbrColor[v][msg.From] = int(m.Value)
			}
		}
		cur := h - (r - (2*h + 1))
		if cur >= 1 && cur < h && a.spec.gclass[v] == cur {
			a.pickColor(v)
		}
	}
}

func (a *refTwoPhaseAlg) chooseCv(v, class int) {
	var fams [][][]int
	for _, t := range a.nbrType[v] {
		if t.gclass == class {
			fams = append(fams, a.familyOf(t))
		}
	}
	bestD := math.MaxInt32
	for _, c := range a.ownK[v] {
		d := 0
		for _, fam := range fams {
			for _, cu := range fam {
				if cover.TauGConflict(c, cu, a.spec.tau, 0) {
					d++
					break
				}
			}
		}
		if d < bestD {
			bestD = d
			a.cv[v] = c
		}
	}
	if a.cv[v] == nil {
		a.cv[v] = a.curList[v]
	}
}

func (a *refTwoPhaseAlg) pickColor(v int) {
	class := a.spec.gclass[v]
	bestX, bestF := -1, math.MaxInt32
	for _, x := range a.cv[v] {
		f := 0
		for u, cu := range a.nbrCv[v] {
			if a.nbrType[v][u].gclass == class && cover.ConflictWeight(a.cv[v], cu, 0) < a.spec.tau {
				f += cover.MuG(x, cu, 0)
			}
		}
		for _, xu := range a.nbrColor[v] {
			if xu == x {
				f++
			}
		}
		if f < bestF {
			bestF = f
			bestX = x
		}
	}
	if bestX == -1 {
		bestX = a.spec.lists[v][0]
	}
	a.phi[v] = bestX
	a.pickedAt[v] = a.round
}

func (a *refTwoPhaseAlg) Done() bool {
	if !a.started {
		a.started = true
		a.round = 1
		return false
	}
	a.round++
	if a.round > 3*a.spec.h {
		a.finished = true
	}
	return a.finished
}

// refSolveMulti is the seed SolveMulti on refBasicAlg.
func refSolveMulti(eng *sim.Engine, in Input, opts Options) (coloring.Assignment, sim.Stats, error) {
	pr := opts.Params.OrPractical()
	o := in.O
	n := o.N()
	h := classCount(o)
	tau := pr.Tau(h, in.SpaceSize, in.M)
	spec := basicSpec{
		o:          o,
		spaceSize:  in.SpaceSize,
		m:          in.M,
		initColors: in.InitColors,
		lists:      make([][]int, n),
		defect:     make([]int, n),
		gclass:     make([]int, n),
		h:          h,
		gap:        opts.Gap,
		tau:        tau,
		kprime:     pr.KPrime(h, tau),
		pr:         pr,
	}
	for v := 0; v < n; v++ {
		list, d, err := restrictToBestDefectClass(o.OutDegree(v), in.Lists[v], h)
		if err != nil {
			return nil, sim.Stats{}, err
		}
		spec.lists[v] = list
		spec.defect[v] = d
		spec.gclass[v] = gammaClass(o.OutDegree(v), d, h)
	}
	phi, stats, err := refRunBasic(eng, spec)
	if err != nil {
		return nil, stats, err
	}
	return coloring.Assignment(phi), stats, nil
}

// auxList is the seed form of a node's γ-class aux list: one 0-based
// color per class candidate, with δ_{v,i} as its defect. Solve builds the
// same list in place from the per-solve arena.
func (s classSelection) auxList() coloring.NodeList {
	colors := make([]int, len(s.cands))
	defs := make([]int, len(s.cands))
	for i, c := range s.cands {
		colors[i] = c.class - 1 // 0-based for the aux color space
		defs[i] = c.delta
	}
	return coloring.NodeList{Colors: colors, Defect: defs}
}

// refSolve is the seed Solve: the case analysis of refAnalyzeNode,
// γ-class selection over refSolveMulti, then refTwoPhaseAlg.
func refSolve(eng *sim.Engine, in Input, opts Options) (coloring.Assignment, sim.Stats, error) {
	pr := opts.Params.OrPractical()
	o := in.O
	n := o.N()
	h := classCount(o)
	hPrime := hPrimeFor(h)
	tau := pr.Tau(h, in.SpaceSize, in.M)
	tauBar := pr.Tau(hPrime, h, in.M)
	kprime := pr.KPrime(h, tau)

	var total sim.Stats
	sel := make([]classSelection, n)
	auxLists := make([]coloring.NodeList, n)
	trivial := true
	for v := 0; v < n; v++ {
		s, err := refAnalyzeNode(o.OutDegree(v), in.Lists[v], h, hPrime, tauBar, pr.Alpha)
		if err != nil {
			return nil, total, err
		}
		sel[v] = s
		auxLists[v] = s.auxList()
		if auxLists[v].Len() != 1 {
			trivial = false
		}
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
		auxIn := Input{O: o, SpaceSize: h, Lists: auxLists, InitColors: in.InitColors, M: in.M}
		auxPhi, auxStats, err := refSolveMulti(eng, auxIn, Options{Params: pr, Gap: gAux, SkipValidate: true})
		total = total.Add(auxStats)
		if err != nil {
			return nil, total, err
		}
		for v := 0; v < n; v++ {
			classes[v] = auxPhi[v] + 1
		}
	}

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
			return nil, total, fmt.Errorf("node %d has no colors for class %d", v, classes[v])
		}
		spec.lists[v] = list
		spec.defect[v] = d
	}
	alg := newRefTwoPhase(spec)
	stats, err := eng.Run(alg, 3*h+4)
	total = total.Add(stats)
	if err != nil {
		return nil, total, err
	}
	return coloring.Assignment(alg.phi), total, nil
}

type goldenInstance struct {
	name string
	o    *graph.Oriented
	seed int64
}

func goldenInstances() []goldenInstance {
	return []goldenInstance{
		{"regular-48-8", graph.OrientByID(graph.RandomRegular(48, 8, 3)), 11},
		{"gnp-64", graph.OrientByID(graph.GNP(64, 0.15, 5)), 13},
		{"tree-degen", graph.OrientDegeneracy(graph.RandomTree(40, 3)), 17},
	}
}

// TestGoldenSolve pins Solve (two-phase + aux class selection) to the seed
// implementation: identical colorings AND identical sim.Stats, for every
// worker count. Solve derives families through the shared cache and the
// embedded seed algorithm derives them directly, so this also pins the
// cached solve to the uncached one.
func TestGoldenSolve(t *testing.T) {
	for _, tc := range goldenInstances() {
		t.Run(tc.name, func(t *testing.T) {
			in, eng := prepareInput(t, tc.o, 1<<12, 6.0, 3, tc.seed)
			wantPhi, wantStats, err := refSolve(eng, in, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4, 0} {
				in2, _ := prepareInput(t, tc.o, 1<<12, 6.0, 3, tc.seed)
				phi, stats, err := Solve(sim.NewEngineWith(tc.o.Graph(), sim.Options{Workers: workers}), in2, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(wantPhi, phi) {
					t.Errorf("workers=%d: coloring diverges from seed", workers)
				}
				if !reflect.DeepEqual(wantStats, stats) {
					t.Errorf("workers=%d: stats diverge from seed:\n want %+v\n  got %+v",
						workers, wantStats, stats)
				}
			}
		})
	}
}

// TestGoldenSolveMulti pins SolveMulti (basic algorithm) to the seed, for
// gap 0 and a nonzero gap (the shifted-window kernels).
func TestGoldenSolveMulti(t *testing.T) {
	for _, gap := range []int{0, 1} {
		for _, tc := range goldenInstances() {
			t.Run(fmt.Sprintf("%s/gap=%d", tc.name, gap), func(t *testing.T) {
				in, eng := prepareInput(t, tc.o, 1<<12, 6.0, 2, tc.seed)
				opts := Options{Gap: gap, SkipValidate: gap != 0}
				wantPhi, wantStats, err := refSolveMulti(eng, in, opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 4, 0} {
					in2, _ := prepareInput(t, tc.o, 1<<12, 6.0, 2, tc.seed)
					phi, stats, err := SolveMulti(sim.NewEngineWith(tc.o.Graph(), sim.Options{Workers: workers}), in2, opts)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(wantPhi, phi) {
						t.Errorf("workers=%d: coloring diverges from seed", workers)
					}
					if !reflect.DeepEqual(wantStats, stats) {
						t.Errorf("workers=%d: stats diverge from seed:\n want %+v\n  got %+v",
							workers, wantStats, stats)
					}
				}
			})
		}
	}
}

// dropWhere is a fault model that drops exactly the wires its predicate
// selects and corrupts none.
type dropWhere func(round, from, to int) bool

func (f dropWhere) Wire(round, from, to int) (sim.FaultOutcome, uint64) {
	if f(round, from, to) {
		return sim.FaultDrop, 0
	}
	return sim.FaultNone, 0
}

// TestGoldenUnderFaults re-checks equivalence when messages are dropped:
// the fault path exercises the "neighbor with no stored type" branches,
// which must skip identically in both implementations.
func TestGoldenUnderFaults(t *testing.T) {
	o := graph.OrientByID(graph.RandomRegular(40, 8, 53))
	fault := dropWhere(func(round, from, to int) bool { return (from+to+round)%5 == 2 })
	in, _ := prepareInput(t, o, 1<<12, 5.0, 2, 55)
	wantPhi, wantStats, refErr := refSolve(sim.NewEngineWith(o.Graph(), sim.Options{Faults: fault}), in, Options{SkipValidate: true})
	for _, workers := range []int{1, 4} {
		in2, _ := prepareInput(t, o, 1<<12, 5.0, 2, 55)
		phi, stats, err := Solve(sim.NewEngineWith(o.Graph(), sim.Options{Workers: workers, Faults: fault}), in2, Options{SkipValidate: true})
		if (err == nil) != (refErr == nil) {
			t.Fatalf("workers=%d: error divergence: ref=%v new=%v", workers, refErr, err)
		}
		if err != nil {
			continue
		}
		if !reflect.DeepEqual(wantPhi, phi) || !reflect.DeepEqual(wantStats, stats) {
			t.Errorf("workers=%d: faulted run diverges from seed", workers)
		}
	}
}
