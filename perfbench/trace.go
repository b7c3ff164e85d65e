package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// tracedSlices is how many alternating untraced/traced slices the
// traced run's closed loop is cut into; comparing their throughput
// gives the tracing overhead.
const tracedSlices = 4

// tracedPhases is the traced run's closed loop: alternating untraced
// and traced slices of equal length.
type tracedPhases struct {
	untraced, traced         Tally
	untracedWall, tracedWall time.Duration
	spans                    []Span
	// windows are /metrics scrapes before and after each traced slice,
	// so handler time is compared with client spans over one window.
	windows   [][2]Metrics
	handlerUS float64
}

func (p *tracedPhases) closedLoop(ctx context.Context, b *Bench, senders []*Sender, gen *Generator, d time.Duration) (Tally, time.Duration, error) {
	var all Tally
	var wall time.Duration
	slice := d / tracedSlices
	for i := 0; i < tracedSlices; i++ {
		on := i%2 == 1
		for _, s := range senders {
			s.trace.Store(on)
		}
		var before Metrics
		if on {
			var err error
			if before, err = b.Daemon.Scrape(ctx); err != nil {
				return all, wall, err
			}
		}
		t, w := ClosedLoop(ctx, senders, gen, slice)
		if on {
			after, err := b.Daemon.Scrape(ctx)
			if err != nil {
				return all, wall, err
			}
			p.windows = append(p.windows, [2]Metrics{before, after})
			p.traced.merge(&t)
			p.tracedWall += w
			p.spans = append(p.spans, t.Spans...)
		} else {
			p.untraced.merge(&t)
			p.untracedWall += w
		}
		all.merge(&t)
		wall += w
	}
	for _, s := range senders {
		s.trace.Store(false)
	}
	return all, wall, nil
}

// sampleLag scrapes the compactor lag every 200 ms until stop closes
// and returns the largest value seen.
func sampleLag(ctx context.Context, d *Daemon, stop <-chan struct{}) float64 {
	var lagMax float64
	tick := time.NewTicker(200 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return lagMax
		case <-tick.C:
			if m, err := d.Scrape(ctx); err == nil {
				lagMax = max(lagMax, m["reputation_storedb_compactor_lag"])
			}
		}
	}
}

// writeSpans writes the run's spans, one JSON object per line, to
// <trace dir>/<workload>-seed<n>.jsonl.
func writeSpans(cfg Config, spans []Span) error {
	if err := os.MkdirAll(cfg.TraceDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(cfg.TraceDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.Spec.Name, cfg.Seed)))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
