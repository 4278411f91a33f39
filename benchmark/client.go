package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Operation types the benchmark counts attempts and failures of.
const (
	opFirst = iota
	opGet
	opBatch
	opIngest
	opStream
	opReinfer
	opReinferPoll
	opHealthz
	opSwaps
	opReadback
	nOps
)

var opNames = [nOps]string{"first_request", "get", "batch", "ingest", "stream", "reinfer", "reinfer_poll", "healthz", "swaps", "readback"}

// client sends the workload's requests, one at a time, over one keep-alive
// connection to the in-process service, and counts every request it sends
// by operation type. A request fails when the transport errs or the status
// is not the one the operation expects. One closed-loop connection leaves
// the server one of the machine's two cores; two saturate both, and their
// figures swing several times more between runs.
type client struct {
	base string
	hc   *http.Client
	tr   *tracer
	// ops counts attempts ([0]) and failures ([1]) per operation type.
	ops [nOps][2]int64
}

func newClient(tr *tracer) *client {
	t := &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{Transport: t, Timeout: 2 * time.Minute}, tr: tr}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// add counts o's operations as c's.
func (c *client) add(o *client) {
	for op := range c.ops {
		c.ops[op][0] += o.ops[op][0]
		c.ops[op][1] += o.ops[op][1]
	}
}

// send performs one request and reads the whole response body into buf
// (reset first). It returns an error, and counts a failure, unless the
// status is want.
func (c *client) send(op int, parent uint64, method, url string, body []byte, want int, buf *bytes.Buffer) error {
	sp := c.tr.start("http."+opNames[op], parent)
	err := c.roundTrip(method, url, body, want, buf)
	c.tr.end(sp)
	c.ops[op][0]++
	if err != nil {
		c.ops[op][1]++
		return fmt.Errorf("%s %s: %w", method, url, err)
	}
	return nil
}

func (c *client) roundTrip(method, url string, body []byte, want int, buf *bytes.Buffer) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+url, rd)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("status %d, want %d: %s", resp.StatusCode, want, truncate(buf.Bytes(), 200))
	}
	return nil
}

// callJSON sends a request expecting status want and decodes the body into v.
func (c *client) callJSON(op int, parent uint64, method, url string, body []byte, want int, v any) error {
	var buf bytes.Buffer
	if err := c.send(op, parent, method, url, body, want, &buf); err != nil {
		return err
	}
	if err := json.Unmarshal(buf.Bytes(), v); err != nil {
		return fmt.Errorf("%s %s: decode: %w", method, url, err)
	}
	return nil
}

// opCounts reports attempts and failures per operation type, and their
// totals.
func (c *client) opCounts() (per map[string][2]int64, attempted, failed int64) {
	per = make(map[string][2]int64)
	for i := range c.ops {
		a, f := c.ops[i][0], c.ops[i][1]
		if a == 0 {
			continue
		}
		per[opNames[i]] = [2]int64{a, f}
		attempted += a
		failed += f
	}
	return per, attempted, failed
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		return string(b[:n]) + "..."
	}
	return string(b)
}
