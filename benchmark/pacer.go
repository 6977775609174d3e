package main

import "time"

// pace drives an open loop: event i is due at start + i*interval and is sent
// as soon as it is due. When send blocks, later events go out late, never
// skipped, and are still timed from their due time by the caller — the wait
// a stall imposes on later events is counted, not omitted. idle, when
// non-nil, runs before each sleep. pace returns once the schedule passes
// dur, with the number of events sent and how late each send began.
func pace(start time.Time, interval float64, dur time.Duration, send func(), idle func()) (sent int64, lag *hist) {
	lag = &hist{}
	for {
		due := time.Duration(float64(sent) * interval)
		if due >= dur {
			return sent, lag
		}
		now := time.Since(start)
		if now < due {
			if idle != nil {
				idle()
			}
			time.Sleep(due - now)
			now = time.Since(start)
		}
		lag.record(int64(now - due))
		send()
		sent++
	}
}
