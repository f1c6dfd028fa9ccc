package bench

import (
	"flag"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"supermem/internal/config"
	"supermem/internal/obs"
	"supermem/internal/workload"
)

// KVOpts sizes the KV-serving experiment grid. Zero fields take
// defaults, so KVOpts{} is the standard run.
type KVOpts struct {
	// Shards lists the shard counts to sweep (one shard per core, one
	// bank per shard past the first); default {1, 2, 4, 8}.
	Shards []int
	// Schemes lists the secure-NVM designs per cell; default
	// {Unsec, WT, WTXBank, SuperMem}.
	Schemes []config.Scheme
	// Thetas lists the Zipfian skews; default {0, 0.99} (uniform and
	// YCSB's default skew).
	Thetas []float64
	// Keys is the per-shard keyspace preloaded at setup; default 4096.
	Keys int
	// Requests is the measured request count per shard; default
	// Opts.Transactions.
	Requests int
	// TxBytes sizes the stored values via the workload's TxBytes rule;
	// default 256.
	TxBytes int
	// Mix is the read/update/insert/delete/scan percentages; zero
	// selects the workload's default 95/5 read/update mix.
	Mix [5]int
	// ScanLen is the keys-per-scan length (0 = workload default).
	ScanLen int
	// UncoreVariants adds shared-vs-partitioned counter-cache and
	// shared-vs-per-core write-queue cells at the largest shard count
	// and most skewed stream (SuperMem only). Default on; the CLI can
	// switch it off for quick sweeps.
	UncoreVariants *bool
	// CoreModel selects the shard cores' timing model ("" = in-order;
	// config.CoreOoO serves requests out of order through the MSHR
	// file). Timing-only: the request streams are unchanged.
	CoreModel string
}

func (ko KVOpts) withDefaults(o Opts) KVOpts {
	if len(ko.Shards) == 0 {
		ko.Shards = []int{1, 2, 4, 8}
	}
	if len(ko.Schemes) == 0 {
		ko.Schemes = []config.Scheme{config.Unsec, config.WT, config.WTXBank, config.SuperMem}
	}
	if len(ko.Thetas) == 0 {
		ko.Thetas = []float64{0, 0.99}
	}
	if ko.Keys == 0 {
		ko.Keys = 4096
	}
	if ko.Requests == 0 {
		ko.Requests = o.Transactions
	}
	if ko.TxBytes == 0 {
		ko.TxBytes = 256
	}
	if ko.UncoreVariants == nil {
		on := true
		ko.UncoreVariants = &on
	}
	return ko
}

// KVCell is one grid point of the KV-serving experiment. Latencies are
// request latencies in cycles, from the per-shard tx-latency histograms
// merged across shards — the merge is order-independent, so the cell is
// byte-identical at any worker parallelism.
type KVCell struct {
	Theta  float64 `json:"theta"`
	Shards int     `json:"shards"`
	Scheme string  `json:"scheme"`
	// CtrPartition and PerCoreWQ mark the uncore-variant cells: a
	// per-core counter-cache partition and/or per-core write queues
	// instead of the shared defaults.
	CtrPartition bool `json:"ctr_partition,omitempty"`
	PerCoreWQ    bool `json:"per_core_wq,omitempty"`
	// Requests is the measured request count summed over shards.
	Requests uint64 `json:"requests"`
	// AvgCycles is the mean request latency.
	AvgCycles float64 `json:"avg_cycles"`
	// P50/P95/P99 are cross-shard request-latency quantiles.
	P50 uint64 `json:"p50"`
	P95 uint64 `json:"p95"`
	P99 uint64 `json:"p99"`
	// ShardP99 is each shard's own p99, in shard order; MaxShardP99 is
	// its maximum — the straggler shard.
	ShardP99    []uint64 `json:"shard_p99"`
	MaxShardP99 uint64   `json:"max_shard_p99"`
	// CtrHitRate is the counter-cache hit rate (0 for unencrypted).
	CtrHitRate float64 `json:"ctr_hit_rate"`
}

// KVResult is the KV-serving experiment's artifact payload. It carries
// no wall-time or parallelism fields: the same options produce a
// byte-identical BENCH_kv.json at any -parallel setting.
type KVResult struct {
	Keys     int      `json:"keys_per_shard"`
	Requests int      `json:"requests_per_shard"`
	TxBytes  int      `json:"tx_bytes"`
	Mix      string   `json:"mix"`
	Cells    []KVCell `json:"cells"`
}

// kvExperiment is the registry entry with its -kv-* flags.
func kvExperiment() Experiment {
	uncore := true
	ko := KVOpts{UncoreVariants: &uncore}
	return Experiment{
		Name: "kv",
		Flags: func(fs *flag.FlagSet) {
			fs.Func("kv-shards", "comma-separated shard counts for -exp kv (default 1,2,4,8)", listFlag(&ko.Shards, atLeast(1)))
			fs.IntVar(&ko.Keys, "kv-keys", 0, "per-shard keyspace for -exp kv (default 4096)")
			fs.IntVar(&ko.Requests, "kv-requests", 0, "measured requests per shard for -exp kv (default -transactions)")
			fs.Func("kv-skew", "comma-separated Zipfian thetas in [0,1) for -exp kv (default 0,0.99)", listFlag(&ko.Thetas, func(s string) (float64, error) {
				t, err := strconv.ParseFloat(s, 64)
				if err == nil && (t < 0 || t >= 1) {
					err = fmt.Errorf("want a theta in [0,1)")
				}
				return t, err
			}))
			fs.Func("kv-mix", "read,update,insert,delete,scan percentages for -exp kv (default 95,5,0,0,0)", func(s string) error {
				var mix []int
				if err := listFlag(&mix, atLeast(0))(s); err != nil {
					return err
				}
				if len(mix) != len(ko.Mix) {
					return fmt.Errorf("want %d comma-separated percentages (read,update,insert,delete,scan)", len(ko.Mix))
				}
				copy(ko.Mix[:], mix)
				return nil
			})
			fs.IntVar(&ko.TxBytes, "kv-tx", 0, "transaction/value sizing in bytes for -exp kv (default 256)")
			fs.IntVar(&ko.ScanLen, "kv-scan", 0, "keys per scan request for -exp kv (default 16)")
			fs.BoolVar(&uncore, "kv-uncore", true, "include the shared-vs-partitioned counter-cache and per-core write-queue cells in -exp kv")
			fs.Func("kv-core", "core timing model of the KV shard cores for -exp kv (inorder or ooo; default: -core)", coreModelFlag(&ko.CoreModel))
		},
		Run: func(cfg config.Config, o Opts) (Result, error) { return KVServe(cfg, o, ko) },
	}
}

// KVServe runs the sharded KV-serving grid: shards x scheme x skew, with
// per-shard request streams served on a multi-core system (one bank per
// shard), p99 request latency as the headline metric, and — at the
// largest shard count — the shared-vs-partitioned counter cache and
// shared-vs-per-core write queue variants. The per-shard traces depend
// only on (Seed, shard), so every scheme and uncore variant of a
// (shards, theta) point replays one cached recording.
func KVServe(base config.Config, o Opts, ko KVOpts) (*KVResult, error) {
	ko = ko.withDefaults(o)
	type variant struct{ part, pcwq bool }
	type point struct {
		theta  float64
		shards int
		scheme config.Scheme
		v      variant
	}
	var points []point
	for _, theta := range ko.Thetas {
		for _, n := range ko.Shards {
			for _, sch := range ko.Schemes {
				points = append(points, point{theta, n, sch, variant{}})
			}
		}
	}
	if *ko.UncoreVariants {
		maxShards := slices.Max(ko.Shards)
		maxTheta := slices.Max(ko.Thetas)
		if maxShards > 1 {
			for _, v := range []variant{{true, false}, {false, true}, {true, true}} {
				points = append(points, point{maxTheta, maxShards, config.SuperMem, v})
			}
		}
	}

	cells := make([]Spec, len(points))
	for i, pt := range points {
		cfg := base
		cfg.CounterCachePartition = pt.v.part
		cfg.PerCoreWriteQueues = pt.v.pcwq
		cells[i] = Spec{
			Base:           cfg,
			Workload:       "kv",
			Scheme:         pt.scheme,
			TxBytes:        ko.TxBytes,
			Transactions:   ko.Requests,
			Cores:          pt.shards,
			FootprintBytes: o.FootprintBytes,
			Seed:           o.Seed,
			CoreModel:      ko.CoreModel,
			KV: workload.KVConfig{
				Keys:      ko.Keys,
				ReadPct:   ko.Mix[0],
				UpdatePct: ko.Mix[1],
				InsertPct: ko.Mix[2],
				DeletePct: ko.Mix[3],
				ScanPct:   ko.Mix[4],
				ScanLen:   ko.ScanLen,
				Theta:     pt.theta,
			},
		}
	}

	// The experiment reads the per-shard histograms, so it observes
	// every cell.
	ms, recs, err := o.runCells(cells, true)
	if err != nil {
		return nil, fmt.Errorf("kv: %w", err)
	}

	res := &KVResult{
		Keys:     ko.Keys,
		Requests: ko.Requests,
		TxBytes:  ko.TxBytes,
		Mix:      mixString(ko.Mix),
	}
	for i, pt := range points {
		m := ms[i]
		rec := recs[i]
		// Merge the per-shard histograms into the cross-shard
		// distribution; the merge is exact and order-independent, so the
		// quantiles match observing all shards into one histogram.
		var merged obs.Histogram
		shardP99 := make([]uint64, pt.shards)
		var maxP99 uint64
		for k := 0; k < pt.shards; k++ {
			h := rec.CoreTxHist(k)
			merged.Merge(h)
			if h != nil {
				shardP99[k] = h.Quantile(0.99)
			}
			if shardP99[k] > maxP99 {
				maxP99 = shardP99[k]
			}
		}
		cell := KVCell{
			Theta:        pt.theta,
			Shards:       pt.shards,
			Scheme:       pt.scheme.String(),
			CtrPartition: pt.v.part,
			PerCoreWQ:    pt.v.pcwq,
			Requests:     m.Transactions,
			AvgCycles:    m.AvgTxCycles(),
			P50:          merged.Quantile(0.50),
			P95:          merged.Quantile(0.95),
			P99:          merged.Quantile(0.99),
			ShardP99:     shardP99,
			MaxShardP99:  maxP99,
			CtrHitRate:   m.CtrCacheHitRate(),
		}
		res.Cells = append(res.Cells, cell)
	}
	return res, nil
}

// StrictViolations is empty: the KV grid is reported, not gated.
func (*KVResult) StrictViolations() []string { return nil }

func mixString(mix [5]int) string {
	if mix == [5]int{} {
		return "95r/5u"
	}
	return fmt.Sprintf("%dr/%du/%di/%dd/%ds", mix[0], mix[1], mix[2], mix[3], mix[4])
}

// String renders the result as an aligned table.
func (r *KVResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "KV serving: %d keys/shard, %d requests/shard, tx=%dB, mix %s (latencies in cycles)\n",
		r.Keys, r.Requests, r.TxBytes, r.Mix)
	fmt.Fprintf(&b, "%-5s %6s %-10s %-6s %-6s %8s %8s %8s %12s %10s %7s\n",
		"theta", "shards", "scheme", "ctr$", "wq", "p50", "p95", "p99", "max-shard-99", "avg", "ctr-hit")
	for _, c := range r.Cells {
		ctrC, wq := "shared", "shared"
		if c.CtrPartition {
			ctrC = "part"
		}
		if c.PerCoreWQ {
			wq = "percore"
		}
		fmt.Fprintf(&b, "%-5.2f %6d %-10s %-6s %-6s %8d %8d %8d %12d %10.1f %7.3f\n",
			c.Theta, c.Shards, c.Scheme, ctrC, wq, c.P50, c.P95, c.P99, c.MaxShardP99, c.AvgCycles, c.CtrHitRate)
	}
	return b.String()
}
