package oldc

import (
	"repro/internal/algkit"
	"repro/internal/bitio"
	"repro/internal/cover"
	"repro/internal/sim"
)

// typeInfo is a node's P2 type as its type message announces it; the
// candidate family is derived from it (familyOf).
type typeInfo struct {
	initColor int
	gclass    int
	defect    int
	list      []int
}

// nbrRecord is the state the basic and the two-phase algorithm share, and
// the three message rounds both run: types, chosen-set indices and final
// colors. Per-neighbor state lives in flat arrays indexed by out-neighbor
// position (see algkit.OutCSR); candidate families are derived once per
// distinct type through the shared cover.FamilyCache and carry the packed
// column-mask form the batched conflict kernel consumes.
type nbrRecord struct {
	spec  basicSpec
	csr   algkit.OutCSR
	cache *cover.FamilyCache
	sink  sim.FaultSink // decode-fault ledger (the engine); may be nil

	// Per node.
	ownK     []*cover.CachedFamily
	cv       [][]int
	cvIdx    []int // index of cv in ownK, recorded by chooseCv
	phi      []int
	pickedAt []int // round at which v picked (to broadcast once)

	// Per out-arc.
	nbrType  []typeInfo
	nbrFam   []*cover.CachedFamily // family of the received type (nil = no type)
	nbrCv    [][]int               // announced C_u (nil = none)
	nbrCvIdx []int32               // announced set index behind nbrCv (−1 = none)
	nbrColor []int32               // final color (−1 = none)

	round    int
	started  bool
	finished bool
}

func newNbrRecord(spec basicSpec) nbrRecord {
	n := spec.o.N()
	csr := algkit.NewOutCSR(spec.o)
	a := nbrRecord{
		spec:     spec,
		csr:      csr,
		cache:    cover.NewFamilyCache(),
		ownK:     make([]*cover.CachedFamily, n),
		cv:       make([][]int, n),
		cvIdx:    make([]int, n),
		phi:      make([]int, n),
		pickedAt: make([]int, n),
		nbrType:  make([]typeInfo, csr.Arcs()),
		nbrFam:   make([]*cover.CachedFamily, csr.Arcs()),
		nbrCv:    make([][]int, csr.Arcs()),
		nbrCvIdx: make([]int32, csr.Arcs()),
		nbrColor: make([]int32, csr.Arcs()),
	}
	for i := range a.nbrColor {
		a.nbrColor[i] = -1
		a.nbrCvIdx[i] = -1
	}
	for v := 0; v < n; v++ {
		a.phi[v] = -1
		a.pickedAt[v] = -1
	}
	return a
}

// familyOf derives the deterministic candidate family of a type. Both a
// node and all its neighbors run this on the same inputs, which is what
// makes the "send the type, not the family" encoding of Lemma 3.6 work —
// and what makes the derivation memoizable: the family is a pure function
// of the type, so the shared cache collapses the once-per-(node, neighbor,
// round) re-derivations to once per distinct type per run.
func (a *nbrRecord) familyOf(t typeInfo) *cover.CachedFamily {
	return a.cache.Get(cover.Type{
		InitColor: t.initColor,
		List:      t.list,
		SetSize:   a.spec.pr.SetSize(t.gclass, a.spec.tau, len(t.list)),
		NumSets:   a.spec.kprime,
	})
}

// typeOf is node v's type with the list it announces.
func (a *nbrRecord) typeOf(v int, list []int) typeInfo {
	return typeInfo{initColor: a.spec.initColors[v], gclass: a.spec.gclass[v], defect: a.spec.defect[v], list: list}
}

// typePayload is the wire form of typeOf(v, list).
func (a *nbrRecord) typePayload(v int, list []int) typeMsg {
	return typeMsg{
		initColor: a.spec.initColors[v],
		gclass:    a.spec.gclass[v],
		defect:    a.spec.defect[v],
		list:      list,
		mWidth:    bitio.WidthFor(a.spec.m),
		hWidth:    bitio.WidthFor(a.spec.h + 1),
		spaceSize: a.spec.spaceSize,
	}
}

// recvTypes stores each out-neighbor's announced type and derives its
// family.
func (a *nbrRecord) recvTypes(v int, in []sim.Received) {
	p, end := a.csr.Off[v], a.csr.Off[v+1]
	for _, msg := range in {
		var pos int32
		var ok bool
		if pos, p, ok = a.csr.MergePos(p, end, msg.From); !ok {
			continue
		}
		m, ok := asTypeMsg(msg.Payload, a.spec.m, a.spec.h, a.spec.spaceSize, a.sink)
		if !ok {
			continue
		}
		t := typeInfo{initColor: m.initColor, gclass: m.gclass, defect: m.defect, list: m.list}
		a.nbrType[pos] = t
		a.nbrFam[pos] = a.familyOf(t)
	}
}

// recvSets resolves each out-neighbor's announced set index against the
// family of its type.
func (a *nbrRecord) recvSets(v int, in []sim.Received) {
	p, end := a.csr.Off[v], a.csr.Off[v+1]
	for _, msg := range in {
		var pos int32
		var ok bool
		if pos, p, ok = a.csr.MergePos(p, end, msg.From); !ok {
			continue
		}
		idx, ok := sim.AsUint(msg.Payload, a.spec.kprime, a.sink)
		if !ok {
			continue
		}
		if fam := a.nbrFam[pos]; fam != nil && idx < len(fam.Sets) {
			a.nbrCv[pos] = fam.Sets[idx]
			a.nbrCvIdx[pos] = int32(idx)
		}
	}
}

// recvColors stores each out-neighbor's announced final color.
func (a *nbrRecord) recvColors(v int, in []sim.Received) {
	p, end := a.csr.Off[v], a.csr.Off[v+1]
	for _, msg := range in {
		var pos int32
		var ok bool
		if pos, p, ok = a.csr.MergePos(p, end, msg.From); !ok {
			continue
		}
		if c, ok := sim.AsUint(msg.Payload, a.spec.spaceSize, a.sink); ok {
			a.nbrColor[pos] = int32(c)
		}
	}
}

// done advances the round clock and reports whether round last has run.
func (a *nbrRecord) done(last int) bool {
	if !a.started {
		a.started = true
		a.round = 1
		return false
	}
	a.round++
	if a.round > last {
		a.finished = true
	}
	return a.finished
}
