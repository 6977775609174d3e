package harness

import (
	"testing"

	"morphstream/internal/tpg"
	"morphstream/internal/workload"
)

// buildProps constructs the TPG for a GS batch and returns its properties.
func buildProps(t *testing.T, c workload.Config) tpg.Props {
	t.Helper()
	b := workload.GS(c)
	txns, table := b.Materialize()
	builder := tpg.NewBuilderIDs(table.KeyIDs)
	builder.AddTxns(txns, 2)
	return builder.Finalize(2).Props
}

// TestTable2PropsTrackWorkloadCharacteristics verifies the mapping of
// paper Table 2: the measured TPG properties must move with the workload
// characteristics that the decision model assumes drive them.
func TestTable2PropsTrackWorkloadCharacteristics(t *testing.T) {
	base := workload.Config{
		Txns: 2000, StateSize: 400, Theta: 0.2,
		MultiRatio: 0.5, Length: 1, ComplexityUS: 0, Seed: 5,
	}

	t.Run("LD scales with T*l", func(t *testing.T) {
		short := buildProps(t, base)
		long := base
		long.Length = 4
		p := buildProps(t, long)
		if p.NumLD <= short.NumLD {
			t.Fatalf("LD: l=4 gives %d; l=1 gives %d", p.NumLD, short.NumLD)
		}
		moreTxns := long
		moreTxns.Txns = 4000
		p2 := buildProps(t, moreTxns)
		if p2.NumLD <= p.NumLD {
			t.Fatalf("LD: T=4000 gives %d; T=2000 gives %d", p2.NumLD, p.NumLD)
		}
	})

	t.Run("TD scales with T", func(t *testing.T) {
		small := buildProps(t, base)
		big := base
		big.Txns = 8000
		p := buildProps(t, big)
		if p.NumTD < 3*small.NumTD {
			t.Fatalf("TD: T=8000 gives %d; T=2000 gives %d (want ~4x)", p.NumTD, small.NumTD)
		}
	})

	t.Run("PD scales with r", func(t *testing.T) {
		low := base
		low.MultiRatio = 0.1
		high := base
		high.MultiRatio = 0.9
		pl, ph := buildProps(t, low), buildProps(t, high)
		if ph.NumPD <= pl.NumPD {
			t.Fatalf("PD: r=0.9 gives %d; r=0.1 gives %d", ph.NumPD, pl.NumPD)
		}
		if ph.MultiAccessRatio <= pl.MultiAccessRatio {
			t.Fatalf("MultiAccessRatio not tracking r: %f vs %f",
				ph.MultiAccessRatio, pl.MultiAccessRatio)
		}
	})

	t.Run("DegreeSkew tracks theta", func(t *testing.T) {
		uniform := base
		uniform.Theta = 0
		skewed := base
		skewed.Theta = 0.95
		pu, ps := buildProps(t, uniform), buildProps(t, skewed)
		if ps.DegreeSkew <= 2*pu.DegreeSkew {
			t.Fatalf("DegreeSkew: theta=0.95 gives %f; theta=0 gives %f",
				ps.DegreeSkew, pu.DegreeSkew)
		}
	})

	t.Run("ND and window counts", func(t *testing.T) {
		nd := workload.GSND(workload.GSNDConfig{Config: base, NDAccesses: 25})
		txns, table := nd.Materialize()
		builder := tpg.NewBuilderIDs(table.KeyIDs)
		builder.AddTxns(txns, 2)
		if p := builder.Finalize(2).Props; p.NumND != 25 {
			t.Fatalf("NumND = %d; want 25", p.NumND)
		}
		win := workload.GSWindow(workload.GSWindowConfig{
			Config: base, WindowSize: 100, ReadEvery: 500, ReadKeys: 3,
		})
		txns, table = win.Materialize()
		builder = tpg.NewBuilderIDs(table.KeyIDs)
		builder.AddTxns(txns, 2)
		if p := builder.Finalize(2).Props; p.NumWindow != 4*3 {
			t.Fatalf("NumWindow = %d; want 12", p.NumWindow)
		}
	})
}
