package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"softreputation/internal/client"
	"softreputation/internal/core"
	"softreputation/internal/resilience"
)

// maxSenders is the number of client connections: one per core of the
// 2-core box the benchmark was sized on.
const maxSenders = 2

// Span is one timed call: root spans wrap each client.API call, and
// layer-phase spans wrap each call into a layer's public function.
type Span struct {
	Name   string `json:"name"`
	Op     uint64 `json:"op"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Tally is what one sender observed. Senders keep their own and the
// phase merges them, so recording takes no lock.
type Tally struct {
	Ops           int // operations: lookups, looked-up entries, or requests
	Attempted     int // requests sent
	Shed, Refused int // 429/503 answers; transport failures
	Failed        int // unexpected statuses and wrong answers
	Votes         int
	Latency       []time.Duration // per request (per frame for batches), from its due time
	Late          []time.Duration // open loop: hand-off to a sender minus due time
	Spans         []Span
	Errors        []string // first few check failures
}

func (t *Tally) merge(o *Tally) {
	t.Ops += o.Ops
	t.Attempted += o.Attempted
	t.Shed += o.Shed
	t.Refused += o.Refused
	t.Failed += o.Failed
	t.Votes += o.Votes
	t.Latency = append(t.Latency, o.Latency...)
	t.Late = append(t.Late, o.Late...)
	t.Spans = append(t.Spans, o.Spans...)
	if len(t.Errors) < 10 {
		t.Errors = append(t.Errors, o.Errors...)
	}
}

// Sender owns one keep-alive connection to the daemon: its own
// transport capped at one connection, dialing through the shared
// counting dialer. A vote and its follow-up lookup therefore travel
// on the same connection.
type Sender struct {
	api   *client.API
	hc    *http.Client
	bench *Bench
	trace atomic.Bool
	epoch time.Time
	opSeq *atomic.Uint64
}

func newSender(b *Bench, dialer *CountingDialer, opSeq *atomic.Uint64) *Sender {
	tr := client.NewTransport()
	tr.DialContext = dialer.DialContext
	tr.MaxConnsPerHost = 1
	tr.MaxIdleConnsPerHost = 1
	hc := &http.Client{Transport: tr}
	api := client.NewAPI(b.Daemon.Base, hc)
	if b.Spec.Binary {
		api.EnableBinaryProtocol()
	}
	return &Sender{api: api, hc: hc, bench: b, epoch: b.Epoch, opSeq: opSeq}
}

// Close drops the sender's idle connection.
func (s *Sender) Close() { s.hc.CloseIdleConnections() }

// Run executes one unit, checks its answers, and records the outcome
// in t. due is when the unit was scheduled; latency is measured from
// it (closed-loop callers pass the send time).
func (s *Sender) Run(ctx context.Context, u Unit, due time.Time, t *Tally) {
	b := s.bench
	t.Ops += u.Ops()
	op := s.opSeq.Add(1)
	switch u.Kind {
	case unitLookup:
		s.lookup(ctx, op, u.Prog, "", due, t)
	case unitBatch:
		metas := make([]core.SoftwareMeta, len(u.Batch))
		for i, p := range u.Batch {
			metas[i] = b.Cat.Programs[p]
		}
		t.Attempted++
		start := time.Now()
		res, err := s.api.LookupBatch(ctx, metas)
		s.record(t, "client.LookupBatch", op, start, due)
		if s.classify(t, err, "batch") {
			return
		}
		if len(res) != len(metas) {
			s.fail(t, fmt.Sprintf("batch: %d results for %d entries", len(res), len(metas)))
			return
		}
		for i, r := range res {
			if r.Err != nil {
				s.fail(t, fmt.Sprintf("batch entry %d: %v", i, r.Err))
				return
			}
			if msg := b.checkReport(u.Batch[i], r.Report); msg != "" {
				s.fail(t, fmt.Sprintf("batch entry %d: %s", i, msg))
				return
			}
		}
	case unitVote:
		t.Attempted++
		start := time.Now()
		cid, err := s.api.Vote(ctx, b.Sessions[u.User], b.Cat.Programs[u.Prog], client.Rating{Score: u.Score, Comment: u.Comment})
		s.record(t, "client.Vote", op, start, due)
		if s.classify(t, err, "vote") {
			return
		}
		t.Votes++
		if cid == 0 {
			s.fail(t, "vote: acked without a comment id")
			return
		}
		// The follow-up lookup is due the moment the vote is acked: a
		// user who just voted looks at the program again.
		s.lookup(ctx, op, u.Prog, u.Comment, time.Now(), t)
	}
}

func (s *Sender) lookup(ctx context.Context, op uint64, prog int, wantComment string, due time.Time, t *Tally) {
	t.Attempted++
	start := time.Now()
	rep, err := s.api.Lookup(ctx, s.bench.Cat.Programs[prog])
	s.record(t, "client.Lookup", op, start, due)
	if s.classify(t, err, "lookup") {
		return
	}
	if msg := s.bench.checkReport(prog, rep); msg != "" {
		s.fail(t, "lookup: "+msg)
		return
	}
	if wantComment != "" {
		for _, c := range rep.Comments {
			if c.Text == wantComment {
				return
			}
		}
		s.fail(t, fmt.Sprintf("lookup after an acked vote does not show its comment (%d comments)", len(rep.Comments)))
	}
}

// record notes one request's latency from its due time and, when
// tracing, its root span.
func (s *Sender) record(t *Tally, name string, op uint64, start, due time.Time) {
	end := time.Now()
	t.Latency = append(t.Latency, end.Sub(due))
	if s.trace.Load() {
		t.Spans = append(t.Spans, Span{Name: name, Op: op, Start: start.Sub(s.epoch).Nanoseconds(), End: end.Sub(s.epoch).Nanoseconds()})
	}
}

// classify sorts a call's error. It reports whether the call failed.
// Sheds (429, 503) and refused connections count against the error
// rate; anything else is a check failure.
func (s *Sender) classify(t *Tally, err error, what string) bool {
	if err == nil {
		return false
	}
	var se *resilience.HTTPStatusError
	var ne net.Error
	var oe *net.OpError
	switch {
	case errors.As(err, &se) && (se.Status == http.StatusTooManyRequests || se.Status == http.StatusServiceUnavailable):
		t.Shed++
		return true
	case errors.As(err, &oe) || errors.As(err, &ne):
		t.Refused++
		return true
	}
	s.fail(t, fmt.Sprintf("%s: %v", what, err))
	return true
}

func (s *Sender) fail(t *Tally, msg string) {
	t.Failed++
	if len(t.Errors) < 10 {
		t.Errors = append(t.Errors, msg)
	}
}

// ClosedLoop runs every sender back to back on the generator's units
// for d and returns the merged tally and the elapsed time.
func ClosedLoop(ctx context.Context, senders []*Sender, gen *Generator, d time.Duration) (Tally, time.Duration) {
	tallies := make([]Tally, len(senders))
	start := time.Now()
	stop := start.Add(d)
	var wg sync.WaitGroup
	for i, s := range senders {
		wg.Add(1)
		go func(s *Sender, t *Tally) {
			defer wg.Done()
			for time.Now().Before(stop) && ctx.Err() == nil {
				s.Run(ctx, gen.Next(), time.Now(), t)
			}
		}(s, &tallies[i])
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all Tally
	for i := range tallies {
		all.merge(&tallies[i])
	}
	return all, elapsed
}

// Both loops run as back-to-back windows. On a shared host the
// hypervisor takes CPU time from this machine's virtual CPUs (steal),
// which slows every process here in bursts of seconds; the windows let
// a run see, and discount, that interference. closedWindow is the
// closed loop's window; open-loop windows are sized by openWindow.
const closedWindow = time.Second

// openWindow is the open-loop window for a schedule of rate units per
// second: the fewest whole seconds that hold 1,000 units, so each
// window's p99 has at least ten samples beyond it.
func openWindow(rate float64) time.Duration {
	return time.Duration(max(1, int(math.Ceil(minWindowUnits/rate)))) * time.Second
}

const minWindowUnits = 1000

// OpenWindows runs the open loop as whole windows filling at most d,
// each on its own schedule. It returns the merged tally and each
// window's p50 and p99 latency in milliseconds.
func OpenWindows(ctx context.Context, senders []*Sender, gen *Generator, rate float64, d time.Duration) (Tally, []float64, []float64) {
	var all Tally
	var p50, p99 []float64
	w := openWindow(rate)
	for n := max(1, int(d/w)); n > 0; n-- {
		t := OpenLoop(ctx, senders, gen, rate, w)
		p50 = append(p50, ms(quantile(t.Latency, 0.50)))
		p99 = append(p99, ms(quantile(t.Latency, 0.99)))
		all.merge(&t)
	}
	return all, p50, p99
}

// ClosedWindows runs the closed loop for d as back-to-back windows. It
// returns the merged tally, the elapsed time, and per window: ops per
// second, ops per second of CPU time not stolen by the hypervisor,
// and daemon CPU microseconds per op (from procDir).
func ClosedWindows(ctx context.Context, procDir string, senders []*Sender, gen *Generator, d time.Duration) (Tally, time.Duration, closedStats, error) {
	var all Tally
	var wall time.Duration
	var cs closedStats
	p0, err := ReadProc(procDir)
	if err != nil {
		return all, 0, cs, err
	}
	steal0, err := HostSteal()
	if err != nil {
		return all, 0, cs, err
	}
	for left := d; left > 0; left -= closedWindow {
		t, w := ClosedLoop(ctx, senders, gen, min(left, closedWindow))
		p1, err := ReadProc(procDir)
		if err != nil {
			return all, 0, cs, err
		}
		steal1, err := HostSteal()
		if err != nil {
			return all, 0, cs, err
		}
		stolen := min(0.9, float64(steal1-steal0)/clockTicks/w.Seconds()/float64(runtime.NumCPU()))
		ops := float64(t.Ops)
		cs.tput = append(cs.tput, ops/w.Seconds())
		cs.steal = append(cs.steal, stolen)
		cs.tputUnstolen = append(cs.tputUnstolen, ops/(w.Seconds()*(1-stolen)))
		cs.cpu = append(cs.cpu, float64(p1.CPUTicks-p0.CPUTicks)*1e6/clockTicks/max(1, ops))
		all.merge(&t)
		wall += w
		p0, steal0 = p1, steal1
	}
	return all, wall, cs, nil
}

// closedStats is the closed loop's per-window figures.
type closedStats struct {
	tput, tputUnstolen, steal, cpu []float64
}

// OpenLoop schedules units at rate per second for d. One scheduler
// hands each unit to whichever sender is free; when both are busy the
// hand-off waits, and that wait counts in the unit's latency because
// latency runs from the due time.
func OpenLoop(ctx context.Context, senders []*Sender, gen *Generator, rate float64, d time.Duration) Tally {
	type job struct {
		u   Unit
		due time.Time
	}
	jobs := make(chan job)
	tallies := make([]Tally, len(senders))
	var wg sync.WaitGroup
	for i, s := range senders {
		wg.Add(1)
		go func(s *Sender, t *Tally) {
			defer wg.Done()
			for j := range jobs {
				t.Late = append(t.Late, time.Since(j.due))
				s.Run(ctx, j.u, j.due, t)
			}
		}(s, &tallies[i])
	}
	start := time.Now()
	n := int(rate * d.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	for i := 0; i < n && ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(i) * interval)
		u := gen.Next()
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		jobs <- job{u: u, due: due}
	}
	close(jobs)
	wg.Wait()
	var all Tally
	for i := range tallies {
		all.merge(&tallies[i])
	}
	return all
}
