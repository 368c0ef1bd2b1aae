package timingsubg

import (
	"context"
	"io"
)

// solo is a single-query engine: a sequential fleet of one unnamed
// member behind the Engine contract alone (it is not a Fleet). The
// fleet owns the feed pipeline, the WAL, recovery, checkpoints and the
// results plane; solo adds only the member's view of Stats. The
// unnamed member keeps its checkpoints directly under Durability.Dir
// (checkpoint.Dir).
//
// Stats, statsFast and CurrentMatches read the member without the
// roster lock, so a synchronous Config.OnMatch — which runs under it —
// may call them; like every single engine's, they must otherwise not
// race a feed.
type solo struct {
	fl *fleetEngine
	m  *single
}

// openSolo builds the one-member fleet behind Open(Config{Query: q}).
func openSolo(cfg Config) (*solo, error) {
	fl, err := newFleet(cfg, []QuerySpec{{Query: cfg.Query, Options: Options{Decomposition: cfg.Decomposition}}})
	if err != nil {
		return nil, err
	}
	m := fl.members[0]
	if o := m.obs; o != nil {
		// The member is the whole engine: its detection histogram is the
		// pipeline's, so each match is observed once.
		o.det, o.fleetDet = o.fleetDet, nil
	}
	return &solo{fl: fl, m: m}, nil
}

// Feed implements Engine.
func (s *solo) Feed(e Edge) (EdgeID, error) { return s.fl.Feed(e) }

// FeedBatch implements Engine.
func (s *solo) FeedBatch(batch []Edge) (int, error) { return s.fl.FeedBatch(batch) }

// Run implements Engine.
func (s *solo) Run(ctx context.Context, edges <-chan Edge) (int64, error) {
	return s.fl.Run(ctx, edges)
}

// Close implements Engine.
func (s *solo) Close() error { return s.fl.Close() }

// Subscribe implements Engine.
func (s *solo) Subscribe(opts SubscribeOptions) (*Subscription, error) {
	return s.fl.Subscribe(opts)
}

// statsFast is the member's counter-only snapshot with what the fleet
// owns laid over it.
func (s *solo) statsFast() Stats { return s.own(s.m.statsFast()) }

// Stats implements Engine.
func (s *solo) Stats() Stats { return s.own(s.m.Stats()) }

// own overlays the fleet-owned fields on a member snapshot: replay and
// WAL accounting, the results plane's counters and the stage view.
func (s *solo) own(st Stats) Stats {
	fl := s.fl
	st.Replayed = fl.replayed
	st.Durable = fl.log != nil
	if fl.log != nil {
		st.WALSeq = fl.walSeq.Load()
		st.WALSyncs = fl.log.Syncs()
	}
	st.Subscriptions = fl.disp.Subscribers()
	st.SubscriptionDelivered, st.SubscriptionDropped = fl.disp.Delivered(), fl.disp.Dropped()
	if o := fl.obs; o != nil {
		st.Stages = o.pipe.Snapshot()
		st.WatermarkLagNs = watermarkLag(st.LastTime, o.eventUnitNs)
	}
	return st
}

// CurrentMatches implements Engine.
func (s *solo) CurrentMatches(fn func(*Match) bool) { s.m.CurrentMatches(fn) }

// writeState is the diagnostic dump behind WriteState.
func (s *solo) writeState(w io.Writer) { s.m.writeState(w) }
