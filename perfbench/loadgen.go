package main

import (
	"sync"
	"time"
)

// Request outcomes as the generator counts them.
const (
	statusOK = iota + 1
	statusShed
	statusFailed
	// statusAbandoned: the request fell so far behind its due time
	// while waiting for a connection that the generator dropped it
	// unsent. It misses the SLO but is not a server failure.
	statusAbandoned
)

// outcome is what the generator observed for one operation. Times are
// measured from due, the moment the schedule said to send it.
type outcome struct {
	idx        int
	due, start time.Time
	status     int
	err        error

	ttft, tpot, e2e time.Duration
	tokens          int
	cached, fresh   int
	// texts holds the per-token texts of a stream, or one text per
	// prompt of a batch; ids the token ids of an in-process request.
	texts []string
	ids   []int
	// register marks a schema re-registration operation.
	register bool
}

func (o outcome) fail(err error) outcome {
	o.status = statusFailed
	o.err = err
	return o
}

func (o outcome) late() time.Duration { return o.start.Sub(o.due) }

// sendFunc performs one operation for an input that fell due at due.
type sendFunc func(in input, due time.Time) outcome

// openLoop sends inputs on the arrival offsets sched (relative to the
// loop's start) over conns connections. A request due while every
// connection is busy waits in FIFO order, and that wait is part of its
// latency; one that has waited longer than abandonAfter is dropped
// unsent. It returns one outcome per input and the number of requests
// still waiting for a connection when the last one fell due.
func openLoop(inputs []input, sched []time.Duration, conns int, abandonAfter time.Duration, send sendFunc) ([]outcome, int) {
	outs := make([]outcome, len(inputs))
	next := make(chan int, len(inputs)) // sized to the number of sends
	for i := range inputs {
		next <- i
	}
	close(next)
	// A short lead lets every worker reach its first due time.
	t0 := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				due := t0.Add(sched[i])
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				if time.Since(due) > abandonAfter {
					outs[i] = outcome{idx: i, due: due, start: time.Now(), status: statusAbandoned}
					continue
				}
				o := send(inputs[i], due)
				o.idx = i
				outs[i] = o
			}
		}()
	}
	wg.Wait()
	lastDue := t0.Add(sched[len(sched)-1])
	backlog := 0
	for _, o := range outs {
		if o.start.After(lastDue) {
			backlog++
		}
	}
	return outs, backlog
}

// closedLoop sends inputs in order, each as soon as the previous one
// returns, until d has elapsed; each operation is due when it is sent.
func closedLoop(inputs []input, d time.Duration, send sendFunc) []outcome {
	end := time.Now().Add(d)
	var outs []outcome
	for i, in := range inputs {
		if !time.Now().Before(end) {
			break
		}
		o := send(in, time.Now())
		o.idx = i
		outs = append(outs, o)
	}
	return outs
}

// counts tallies a set of outcomes the way loadgen reports them.
type counts struct {
	Sent, OK, Shed, Failed, Abandoned int
}

func tally(outs []outcome) counts {
	var c counts
	for _, o := range outs {
		if o.register {
			continue
		}
		switch o.status {
		case statusAbandoned:
			c.Abandoned++
			continue
		case statusOK:
			c.OK++
		case statusShed:
			c.Shed++
		default:
			c.Failed++
		}
		c.Sent++
	}
	return c
}
