package repro

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/types"
)

// Ablation benches isolate individual design choices the architecture
// depends on (complementing the experiment suite in docs/experiments.md,
// which measures end-to-end claims).

// AblationIndex: the row store's skip list vs a B+-tree vs a hash index
// for the point lookups that dominate OLTP (MemSQL's skip-list argument
// [26] is that lock-free point performance justifies the layout).
func BenchmarkAblation_IndexPointLookup(b *testing.B) {
	const n = 100_000
	keys := make([]types.Row, n)
	for i := range keys {
		keys[i] = types.Row{types.NewInt(int64(i))}
	}
	b.Run("skiplist", func(b *testing.B) {
		sl := index.NewSkipList[int64]()
		for i := range keys {
			v := int64(i)
			sl.GetOrInsert(keys[i], &v)
		}
		rng := rand.New(rand.NewSource(1))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if sl.Get(keys[rng.Intn(n)]) == nil {
				b.Fatal("miss")
			}
		}
	})
	b.Run("btree", func(b *testing.B) {
		bt := index.NewBTree()
		for i := range keys {
			bt.Set(keys[i], int64(i))
		}
		rng := rand.New(rand.NewSource(1))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := bt.Get(keys[rng.Intn(n)]); !ok {
				b.Fatal("miss")
			}
		}
	})
	b.Run("hash", func(b *testing.B) {
		h := index.NewHashIndex()
		for i := range keys {
			h.Add(keys[i], int64(i))
		}
		rng := rand.New(rand.NewSource(1))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if h.Lookup(keys[rng.Intn(n)]) == nil {
				b.Fatal("miss")
			}
		}
	})
}

// AblationSecondaryIndex: point query through a secondary index vs a
// full scan — the access-path choice the tutorial lists first among its
// dimensions.
func BenchmarkAblation_SecondaryIndexVsScan(b *testing.B) {
	e, _ := core.NewEngine(core.Options{})
	defer e.Close()
	schema := types.MustSchema([]types.Column{
		{Name: "id", Type: types.Int64},
		{Name: "cat", Type: types.String},
	}, "id")
	e.CreateTable("t", schema)
	tx := e.Begin()
	for i := 0; i < 100_000; i++ {
		tx.Insert("t", types.Row{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("cat-%d", i%1000))})
	}
	tx.Commit()
	e.Merge("t")
	if err := e.CreateIndex("t", "by_cat", []string{"cat"}, true); err != nil {
		b.Fatal(err)
	}
	target := types.Row{types.NewString("cat-500")}
	b.Run("index-lookup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tx := e.Begin()
			rows, err := tx.LookupByIndex("t", "by_cat", target)
			tx.Abort()
			if err != nil || len(rows) != 100 {
				b.Fatalf("rows=%d err=%v", len(rows), err)
			}
		}
	})
	b.Run("full-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tx := e.Begin()
			n := 0
			tx.Scan("t", nil, nil, func(batch *types.Batch) bool {
				for r := 0; r < batch.Len(); r++ {
					if batch.Row(r)[1].S == "cat-500" {
						n++
					}
				}
				return true
			})
			tx.Abort()
			if n != 100 {
				b.Fatalf("n=%d", n)
			}
		}
	})
}

// AblationDictScan: evaluating a string predicate in the code domain
// (order-preserving dictionary) vs decoding every value first — the
// reason the dictionary is order-preserving at all.
func BenchmarkAblation_StringPredicate(b *testing.B) {
	const n = 1_000_000
	words := make([]string, n)
	for i := range words {
		words[i] = fmt.Sprintf("w-%05d", i%2000)
	}
	dict := compress.BuildDictionary(words)
	codes, _ := dict.Encode(words)
	packed := compress.Pack(codes, compress.BitWidthFor(uint64(dict.Size()-1)))
	b.Run("code-domain", func(b *testing.B) {
		lo := uint64(dict.LowerBound("w-00500"))
		hi := uint64(dict.UpperBound("w-00600"))
		for i := 0; i < b.N; i++ {
			packed.ScanRange(lo, hi, nil)
		}
	})
	b.Run("decode-then-compare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var sel []int
			for j := 0; j < packed.Len(); j++ {
				w := dict.Value(int(packed.Get(j)))
				if w >= "w-00500" && w <= "w-00600" {
					sel = append(sel, j)
				}
			}
			_ = sel
		}
	})
}

// AblationMergeCost: what one delta-merge costs as the delta grows —
// the latency the engine pays for keeping scans fast (E3's other axis).
func BenchmarkAblation_MergeCost(b *testing.B) {
	for _, rows := range []int{10_000, 50_000, 200_000} {
		b.Run(fmt.Sprintf("delta=%d", rows), func(b *testing.B) {
			schema := wideSchema(8)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e, _ := core.NewEngine(core.Options{})
				e.CreateTable("t", schema)
				tx := e.Begin()
				for j := 0; j < rows; j++ {
					tx.Insert("t", wideRow(schema, int64(j)))
				}
				tx.Commit()
				b.StartTimer()
				if _, err := e.Merge("t"); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				e.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows-merged/s")
		})
	}
}

// AblationWALGroupCommit: one inline fsync per commit (SyncEach) spread
// over 1, 10 or 100 inserted rows — how much of durable ingest cost is
// the per-commit sync that group commit amortizes (E15 measures the
// flusher itself).
func BenchmarkAblation_WALGroupCommit(b *testing.B) {
	for _, batch := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("txns-per-commit=%d", batch), func(b *testing.B) {
			e, err := core.NewEngine(core.Options{Dir: b.TempDir(), Sync: core.SyncEach})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			schema := wideSchema(4)
			e.CreateTable("t", schema)
			b.ResetTimer()
			id := int64(0)
			for i := 0; i < b.N; i++ {
				tx := e.Begin()
				for j := 0; j < batch; j++ {
					tx.Insert("t", wideRow(schema, id))
					id++
				}
				if _, err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(id)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}
