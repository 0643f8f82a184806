package harness

import (
	"fmt"

	"hdnh/internal/ycsb"
)

// Ablation isolates each HDNH design choice the paper argues for by running
// the registry variants side by side on the same workloads:
//
//	HDNH          the full design (OCF + hot table + RAFL + sync writes)
//	HDNH-LRU      RAFL replaced by LRU (paper §3.3 comparison)
//	HDNH-NOHOT    hot table removed: searches rely on the OCF alone
//	HDNH-DISPLACE PFHT-style single displacement before resizing (the
//	              eviction trade the paper declines for LEVEL)
//
// Expected shape: NOHOT hurts skewed positive search most (every hit pays
// NVM); LRU trails RAFL as skew rises; DISPLACE trades insert latency for
// fewer resizes.
func Ablation(sc Scale) (*Experiment, error) {
	variants := []string{"HDNH", "HDNH-LRU", "HDNH-NOHOT", "HDNH-DISPLACE"}
	exp := &Experiment{
		ID:      "ablation",
		Title:   "HDNH design-choice ablation (single thread)",
		XLabel:  "workload",
		Columns: variants,
		Notes: []string{
			"NOHOT isolates the hot table; LRU isolates RAFL",
			"DISPLACE adds one cuckoo move before resize (extension)",
		},
	}
	type phase struct {
		label string
		mix   ycsb.Mix
		dist  ycsb.Distribution
		theta float64
	}
	phases := []phase{
		{"insert", ycsb.InsertOnly, ycsb.Uniform, 0},
		{"search+ skew.99", ycsb.ReadOnly, ycsb.ScrambledZipfian, 0.99},
		{"search- uniform", ycsb.NegativeRead, ycsb.Uniform, 0},
		{"ycsb-a", ycsb.WorkloadA, ycsb.ScrambledZipfian, 0.99},
	}
	for _, ph := range phases {
		cells := make([]Cell, 0, len(variants))
		for _, name := range variants {
			res, err := Run(Options{
				Scheme:     name,
				Records:    sc.Records,
				Ops:        sc.Ops,
				Threads:    1,
				Mix:        ph.mix,
				Dist:       ph.dist,
				Theta:      ph.theta,
				Seed:       sc.Seed,
				DeviceMode: sc.Mode,
			})
			if err != nil {
				return nil, fmt.Errorf("ablation %s %s: %w", name, ph.label, err)
			}
			cells = append(cells, mops(name, res.ThroughputMops))
		}
		exp.addRow(ph.label, cells...)
	}
	return exp, nil
}
