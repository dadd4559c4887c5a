package experiments

import (
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"

	"ccmem/internal/memsys"
	"ccmem/internal/sim"
	"ccmem/internal/workload"
)

// AblationRow compares the §4.3 alternatives for one routine, all relative
// to a baseline machine with a small data cache and no CCM (heavyweight
// spills travel through the cache and pollute it):
//
//   - BetterCache: double the associativity ("a bigger or more effective
//     cache ... leaves all the spill traffic on the pathway to memory");
//   - WriteBuffer: stores complete in one cycle ("does little or nothing
//     for loads generated by spilling");
//   - VictimCache: a small victim buffer behind the cache;
//   - CCM: spills promoted by the post-pass allocator into a 1 KB CCM,
//     removing spill traffic from the cache entirely.
type AblationRow struct {
	Name        string
	BaseCycles  int64
	BetterCache float64
	WriteBuffer float64
	VictimCache float64
	CCM         float64
	MissBase    float64 // cache miss rate without CCM
	MissCCM     float64 // cache miss rate with CCM spilling
}

// cacheBase returns the baseline data cache of the ablation: 1 KB
// direct-mapped, 32-byte lines, 1-cycle hit, 8-cycle miss — a deliberately
// small cache so spill pollution is visible, per §2.3.
func cacheBase() memsys.CacheConfig {
	return memsys.CacheConfig{LineBytes: 32, Sets: 32, Ways: 1, HitCost: 1, MissCost: 8}
}

// AblationRoutines is the default routine set: the suite's heaviest
// spillers.
var AblationRoutines = []string{"fpppp", "twldrv", "saturr", "deseco", "radb5X", "jacld"}

// Ablation43 runs the §4.3 comparison.
func Ablation43(cfg Config, names []string) ([]AblationRow, error) {
	if len(names) == 0 {
		names = AblationRoutines
	}
	drv := cfg.driver()
	var rows []AblationRow
	for _, name := range names {
		r, ok := workload.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("ablation: unknown routine %q", name)
		}
		in, err := r.Build()
		if err != nil {
			return nil, err
		}

		runWith := func(strat Strategy, ccmBytes int64, model memsys.Model) (*sim.Stats, error) {
			// Compaction stays off: it renumbers spill addresses, and the
			// ablation's cache models must observe the same address stream
			// the harness has always measured.
			p, _, err := compileWith(drv, in, strat, ccmBytes, cfg, false)
			if err != nil {
				return nil, err
			}
			return sim.Run(p, "main", sim.Config{
				MemCost:  cfg.MemCost,
				CCMBytes: ccmBytes,
				Memory:   model,
			})
		}

		base, err := memsys.NewCache(cacheBase())
		if err != nil {
			return nil, err
		}
		stBase, err := runWith(StrategyNone, 0, base)
		if err != nil {
			return nil, fmt.Errorf("ablation %s base: %w", name, err)
		}
		baseStats := base.Stats()

		betterCfg := cacheBase()
		betterCfg.Ways = 2 // same capacity per set ×2: a "better cache"
		better, err := memsys.NewCache(betterCfg)
		if err != nil {
			return nil, err
		}
		stBetter, err := runWith(StrategyNone, 0, better)
		if err != nil {
			return nil, err
		}

		wbInner, err := memsys.NewCache(cacheBase())
		if err != nil {
			return nil, err
		}
		stWB, err := runWith(StrategyNone, 0, memsys.NewWriteBuffer(wbInner, 1))
		if err != nil {
			return nil, err
		}

		vcCfg := cacheBase()
		vcCfg.VictimWays = 4
		vc, err := memsys.NewCache(vcCfg)
		if err != nil {
			return nil, err
		}
		stVC, err := runWith(StrategyNone, 0, vc)
		if err != nil {
			return nil, err
		}

		ccmCache, err := memsys.NewCache(cacheBase())
		if err != nil {
			return nil, err
		}
		stCCM, err := runWith(StrategyPostPassIPA, 1024, ccmCache)
		if err != nil {
			return nil, err
		}
		ccmStats := ccmCache.Stats()

		rel := func(st *sim.Stats) float64 {
			return float64(st.Cycles) / float64(stBase.Cycles)
		}
		missRate := func(s memsys.Stats) float64 {
			if s.Accesses == 0 {
				return 0
			}
			return float64(s.Misses) / float64(s.Accesses)
		}
		rows = append(rows, AblationRow{
			Name:        name,
			BaseCycles:  stBase.Cycles,
			BetterCache: rel(stBetter),
			WriteBuffer: rel(stWB),
			VictimCache: rel(stVC),
			CCM:         rel(stCCM),
			MissBase:    missRate(baseStats),
			MissCCM:     missRate(ccmStats),
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].BaseCycles > rows[j].BaseCycles })
	return rows, nil
}

// FormatAblation renders the §4.3 comparison.
func FormatAblation(rows []AblationRow) string {
	var b strings.Builder
	b.WriteString("§4.3 ablation: memory-hierarchy alternatives vs CCM (cycles relative to small-cache baseline)\n")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintf(w, "Routine\tBase cycles\tBetter cache\tWrite buffer\tVictim cache\tCCM (1KB)\tMiss%% base\tMiss%% CCM\n")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%.3f\t%.3f\t%.3f\t%.3f\t%.1f\t%.1f\n",
			r.Name, r.BaseCycles, r.BetterCache, r.WriteBuffer, r.VictimCache, r.CCM,
			100*r.MissBase, 100*r.MissCCM)
	}
	w.Flush()
	return b.String()
}
