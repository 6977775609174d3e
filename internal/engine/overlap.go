package engine

import (
	"sync"
	"sync/atomic"
	"time"
)

// OverlapMeter measures how much of the pipelined engine's wall-clock time
// the planning stage and the execution stage spend running simultaneously —
// the benefit of plan-while-execute punctuation overlap. Each stage flips
// its busy bit at burst granularity (a run of planned events, one batch
// execution), so the meter costs two mutexed transitions per burst and
// nothing on the per-event hot path.
type OverlapMeter struct {
	// bits mirrors (planBusy | execBusy<<1) so an unchanged transition —
	// the planner re-asserting "busy" on every event of a burst — is one
	// atomic load, never the mutex.
	bits     atomic.Uint32
	mu       sync.Mutex
	started  bool
	planBusy bool
	execBusy bool
	epoch    time.Time // first transition; wall-clock origin
	since    time.Time // last transition
	stats    OverlapStats
}

// OverlapStats is one reading of an OverlapMeter.
type OverlapStats struct {
	// PlanBusy is the total time the planning stage was busy.
	PlanBusy time.Duration
	// ExecBusy is the total time the execution stage was busy.
	ExecBusy time.Duration
	// Overlap is the time both stages were busy simultaneously; it is the
	// wall-clock time strictly alternating the two stages would have added.
	Overlap time.Duration
	// Wall is the wall-clock span from the first transition to the reading.
	Wall time.Duration
}

// Ratio reports the overlap share of execution time — the fraction of
// execution during which planning ran concurrently (0 when execution never
// ran). This is the single "pipelining worked" number the harness tables
// and the telemetry /statusz snapshot both derive from.
func (s OverlapStats) Ratio() float64 {
	if s.ExecBusy <= 0 {
		return 0
	}
	return float64(s.Overlap) / float64(s.ExecBusy)
}

// SetPlan marks the planning stage busy or idle. No-op when unchanged.
func (m *OverlapMeter) SetPlan(busy bool) {
	if m == nil || busyBit(m.bits.Load()&1) == busy {
		return
	}
	m.transition(0, busy)
}

// SetExec marks the execution stage busy or idle. No-op when unchanged.
func (m *OverlapMeter) SetExec(busy bool) {
	if m == nil || busyBit(m.bits.Load()&2) == busy {
		return
	}
	m.transition(1, busy)
}

func busyBit(v uint32) bool { return v != 0 }

func (m *OverlapMeter) transition(stage uint, busy bool) {
	m.mu.Lock()
	bit := &m.planBusy
	if stage == 1 {
		bit = &m.execBusy
	}
	if *bit != busy {
		m.advance(time.Now())
		*bit = busy
		if busy {
			m.bits.Or(1 << stage)
		} else {
			m.bits.And(^uint32(1 << stage))
		}
	}
	m.mu.Unlock()
}

// advance accrues the interval since the last transition under m.mu.
func (m *OverlapMeter) advance(now time.Time) {
	if !m.started {
		m.started = true
		m.epoch = now
		m.since = now
		return
	}
	dt := now.Sub(m.since)
	m.since = now
	if m.planBusy {
		m.stats.PlanBusy += dt
	}
	if m.execBusy {
		m.stats.ExecBusy += dt
	}
	if m.planBusy && m.execBusy {
		m.stats.Overlap += dt
	}
}

// Stats returns the accumulated reading, including any in-progress busy
// interval up to now.
func (m *OverlapMeter) Stats() OverlapStats {
	if m == nil {
		return OverlapStats{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	now := time.Now()
	m.advance(now)
	s := m.stats
	if m.started {
		s.Wall = now.Sub(m.epoch)
	}
	return s
}
