package oldc

import (
	"repro/internal/cover"
	"repro/internal/obs"
	"repro/internal/sim"
)

// publishCacheStats folds a run's family-cache figures into the engine's
// metrics registry (a no-op without a registry). Misses equal the
// number of distinct types derived — derivation happens exactly once per
// type under the cache's write lock — so for a fixed instance the split is
// deterministic across worker counts; the arena gauges record the resident
// cost of the memoized families.
func publishCacheStats(eng *sim.Engine, cache *cover.FamilyCache) {
	reg := eng.Metrics()
	if reg == nil {
		return
	}
	hits, misses := cache.Stats()
	if hits > 0 {
		reg.Counter(obs.MetricFamilyCacheHits).Add(hits)
	}
	if misses > 0 {
		reg.Counter(obs.MetricFamilyCacheMisses).Add(misses)
	}
	reg.Gauge(obs.MetricFamilyCacheEntries).Set(int64(cache.Len()))
	reg.Gauge(obs.MetricFamilyArenaBytes).Set(cache.ArenaBytes())
}
