package timingsubg

import (
	"errors"
	"iter"

	"timingsubg/internal/dispatch"
)

// OverflowPolicy says what happens when a subscription's buffer is
// full at delivery time. The default, Block, trades ingest throughput
// for losslessness; the drop policies guarantee that a slow consumer
// can never stall Feed/FeedBatch.
type OverflowPolicy = dispatch.Policy

const (
	// Block applies backpressure: the engine waits for the consumer.
	// A Block subscriber must keep receiving until its channel closes,
	// or it stalls ingest (and, on a fleet, can stall Close).
	Block = dispatch.Block
	// DropOldest evicts the oldest buffered delivery to admit the new
	// one — the buffer always holds the newest matches, and ingest
	// never blocks on this subscriber.
	DropOldest = dispatch.DropOldest
	// DropNewest discards the incoming delivery when the buffer is
	// full — the buffer holds the oldest undelivered matches, and
	// ingest never blocks on this subscriber.
	DropNewest = dispatch.DropNewest
)

// Delivery is one match delivered to a subscription (or to
// Config.OnDelivery): the query name ("" on single-query engines), the
// per-query delivery sequence number, and the match itself.
//
// Sequence numbers start at 1 per query and are stable for a given
// stream: a durable engine seeds them from its recovered checkpoint,
// so a match re-reported by recovery replay carries the same Seq it
// had before the crash. A consumer that records its per-query
// high-water mark gets exactly-once delivery across restarts by
// resubscribing with SubscribeOptions.AfterSeq.
type Delivery = dispatch.Delivery

// SubscribeOptions configures one Engine.Subscribe call.
type SubscribeOptions struct {
	// Queries filters the subscription by query name. Nil or empty
	// subscribes to every query, including queries registered after the
	// subscription (single-query engines publish under the name "").
	// A subscription with an explicit filter ends (its channel closes)
	// when the last of its named queries is removed from a fleet.
	Queries []string
	// Prefix, when non-empty, restricts the subscription to queries
	// whose name starts with it — the namespace form of Queries. It
	// follows the roster dynamically (queries registered later under
	// the prefix are delivered) and composes with Queries: when both
	// are set a delivery must pass both filters.
	Prefix string
	// Buffer is the delivery channel capacity (default 256).
	Buffer int
	// Policy is the overflow policy (default Block).
	Policy OverflowPolicy
	// AfterSeq holds per-query resume cursors: deliveries for query q
	// with Seq <= AfterSeq[q] are skipped. Use it to resume after a
	// consumer restart without re-processing matches already seen.
	AfterSeq map[string]int64
}

// SubscriptionStats is one subscription's delivery accounting.
type SubscriptionStats struct {
	// Delivered counts matches handed to the subscription's channel.
	Delivered int64
	// Dropped counts matches lost to the overflow policy. Always zero
	// under Block.
	Dropped int64
}

// Subscription is one live match consumer, attached to an engine at
// runtime by Engine.Subscribe and detached by Cancel (or by the engine
// closing, or — for filtered subscriptions on a fleet — by the last
// filtered query being removed).
type Subscription struct {
	sub *dispatch.Sub
}

// C is the delivery channel. It closes when the subscription ends;
// deliveries buffered before that remain readable. Matches received
// from C are owned by the consumer (they are copies, never the
// engine's scratch) until it hands them back with Release.
func (s *Subscription) C() <-chan Delivery { return s.sub.C() }

// Release hands back the match of a delivery received from C once the
// consumer is done with it, so the engine overwrites it for a later
// match of the same query instead of allocating a copy. Afterwards the
// consumer must not touch dv.Match; release each delivery at most once.
// Releasing is optional: a match never released is garbage collected
// as usual, and the engine keeps at most 64 released matches per
// query. Matches yielded by Matches and Deliveries are the consumer's
// to keep, and the iterators never release them.
func (s *Subscription) Release(dv Delivery) { s.sub.Release(dv) }

// Matches ranges over the subscription as (query, match) pairs — the
// iterator form of C for Go 1.23+ range-over-func consumers:
//
//	for query, m := range sub.Matches() {
//		alert(query, m)
//	}
//
// The loop ends when the subscription does. Breaking out of the loop
// cancels the subscription.
func (s *Subscription) Matches() iter.Seq2[string, *Match] {
	return func(yield func(string, *Match) bool) {
		for dv := range s.sub.C() {
			if !yield(dv.Query, dv.Match) {
				s.Cancel()
				return
			}
		}
	}
}

// Deliveries is Matches with sequence numbers: (query, delivery)
// pairs for consumers that track resume cursors.
func (s *Subscription) Deliveries() iter.Seq2[string, Delivery] {
	return func(yield func(string, Delivery) bool) {
		for dv := range s.sub.C() {
			if !yield(dv.Query, dv) {
				s.Cancel()
				return
			}
		}
	}
}

// Cancel detaches the subscription and closes its channel. Idempotent
// and safe to call concurrently with deliveries; a delivery blocked on
// this subscription's full buffer is released.
func (s *Subscription) Cancel() { s.sub.Cancel() }

// Stats returns the subscription's live delivery accounting.
func (s *Subscription) Stats() SubscriptionStats {
	st := s.sub.Stats()
	return SubscriptionStats{Delivered: st.Delivered, Dropped: st.Dropped}
}

// subscribeOn validates o and attaches a subscription to d on behalf
// of an engine's Subscribe method.
func subscribeOn(d *dispatch.Dispatcher, o SubscribeOptions) (*Subscription, error) {
	switch o.Policy {
	case Block, DropOldest, DropNewest:
	default:
		return nil, errors.Join(ErrBadOptions, errors.New("unknown overflow policy"))
	}
	if o.Buffer < 0 {
		return nil, errors.Join(ErrBadOptions, errors.New("negative subscription buffer"))
	}
	if o.Buffer == 0 {
		o.Buffer = 256
	}
	sub := d.Subscribe(dispatch.Options{
		Queries:  o.Queries,
		Prefix:   o.Prefix,
		Buffer:   o.Buffer,
		Policy:   o.Policy,
		AfterSeq: o.AfterSeq,
	})
	if sub == nil {
		return nil, ErrClosed
	}
	return &Subscription{sub: sub}, nil
}

// configSink folds Config's synchronous delivery hooks (OnMatch,
// OnDelivery) into one dispatcher fn-subscription, or nil if neither
// is set.
func configSink(cfg Config) func(Delivery) {
	om, od := cfg.OnMatch, cfg.OnDelivery
	if om == nil && od == nil {
		return nil
	}
	return func(dv Delivery) {
		if om != nil {
			om(dv.Query, dv.Match)
		}
		if od != nil {
			od(dv)
		}
	}
}
