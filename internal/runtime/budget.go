package runtime

import (
	"patterndp/internal/account"
	"patterndp/internal/stream"
)

// emitBudgeted is emit's answer path with privacy-budget admission control
// wired in: every window closed for the stream is decided against the
// stream's ledger before the engine runs, only admitted windows are served
// (and charged, once per window — answering n queries from one release is
// post-processing), and denied or suppressed windows publish nothing or a
// data-independent placeholder. Published answers carry the stream's
// post-charge budget position. Like emit it runs on the shard goroutine,
// reuses per-shard scratch, and takes no locks on the publish path.
func (s *shard) emitBudgeted(key string, st *streamState, ws []stream.Window) bool {
	l := s.rt.ledger
	epoch := uint64(s.cur.budgetEpoch)
	s.admScratch = s.admScratch[:0]
	s.outScratch = s.outScratch[:0]
	rotated := false
	for i := range ws {
		out := l.Decide(s.led, st.bud, int64(st.next+i), s.charge, epoch)
		if out.Decision == account.Rotate {
			// The BudgetRotateEpoch policy: request one rotation per
			// observed epoch (level-triggered, so concurrent exhaustions
			// collapse into one) and suppress the triggering window. The
			// fresh grant applies from the next window boundary, when
			// syncControl picks up the rotated state.
			if !rotated {
				rotated = true
				if _, err := s.rt.rotateBudgetFrom(s.cur.budgetEpoch); err != nil && err != ErrClosed {
					// ErrClosed: a closing runtime grants no fresh
					// epochs — the remaining drain degrades to Suppress.
					return s.fail(err)
				}
			}
			out = l.Suppress(s.led, st.bud)
		}
		if out.Decision == account.Admitted {
			s.admScratch = append(s.admScratch, ws[i])
			s.led.ChargeQueries(s.charge)
		}
		if s.wal != nil {
			charge := 0.0
			if out.Decision == account.Admitted {
				charge = s.charge
			}
			s.wal.StageWindow(key, int64(st.next+i), int64(ws[i].Start), walDecision(out.Decision), charge, epoch)
		}
		s.outScratch = append(s.outScratch, out)
	}
	engAnswers := s.ansScratch[:0]
	if len(s.admScratch) > 0 {
		var err error
		engAnswers, err = s.engine.ProcessWindowsInto(engAnswers, s.admScratch)
		if err != nil {
			return s.fail(err)
		}
		s.ansScratch = engAnswers
	}
	s.pubAns = s.pubAns[:0]
	nq := len(s.cur.targets)
	ai := 0
	for i := range ws {
		out := s.outScratch[i]
		switch out.Decision {
		case account.Admitted:
			for k := 0; k < nq; k++ {
				a := engAnswers[ai]
				ai++
				a.WindowIndex = st.next + i
				s.pubAns = append(s.pubAns, Answer{
					Stream:           key,
					Shard:            s.id,
					Epoch:            s.cur.epoch,
					SpentEpsilon:     out.Spent,
					RemainingEpsilon: out.Remaining,
					TraceNanos:       s.trace0,
					Answer:           a,
				})
			}
		case account.Suppressed, account.Throttled:
			// A data-independent placeholder: computed without touching
			// the window's contents (interval only, Detected constant
			// false), so it spends no budget.
			w := stream.Window{Start: ws[i].Start, End: ws[i].End}
			for k := 0; k < nq; k++ {
				a := Answer{
					Stream:           key,
					Shard:            s.id,
					Epoch:            s.cur.epoch,
					SpentEpsilon:     out.Spent,
					RemainingEpsilon: out.Remaining,
					Suppressed:       true,
					TraceNanos:       s.trace0,
				}
				a.Query = s.cur.targets[k].Name
				a.WindowIndex = st.next + i
				a.Window = w
				s.pubAns = append(s.pubAns, a)
			}
		case account.Denied:
			// Nothing is released; the window index still advances so
			// indices stay aligned with time.
		}
	}
	// publish defers the answers past the message-level group commit when a
	// WAL is attached: a crash before that commit publishes nothing, a crash
	// after it over-counts (a charge whose answer never left) — both sides
	// of the one-sided recovery invariant.
	s.publish(s.pubAns)
	s.stats.answersEmitted.Add(int64(len(s.pubAns)))
	st.next += len(ws)
	return true
}
