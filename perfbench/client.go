package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"insomnia/internal/campaign"
	"insomnia/internal/dsl"
	"insomnia/internal/runner"
	"insomnia/internal/simd"
)

// iteration is what one submitted campaign produced and what it cost.
// Times are seconds measured from the submit call.
type iteration struct {
	wall     float64 // until every artifact is written (or served)
	firstRow float64 // until the first completed cell row
	tail     float64 // from the last row until the job reported done
	cpu      float64 // process user+sys CPU over the iteration
	allocMB  float64 // Go heap bytes allocated over the iteration

	submit      float64 // the submit call (POST or campaign.Submit)
	artifactGet float64 // fetching every artifact (GET or file read)

	rows        map[int]campaign.Row // successful cell rows by cell index
	rowEvents   int                  // row events received
	failedCells int                  // row events carrying an error
	cellErr     string               // the first of those errors
	requests    int                  // HTTP requests made
	failedReqs  int                  // HTTP requests refused or failed
	artifacts   map[string][]byte    // artifact name -> bytes
}

func newIteration() *iteration {
	return &iteration{rows: map[int]campaign.Row{}, artifacts: map[string][]byte{}}
}

func (it *iteration) row(ev campaign.RowEvent) {
	it.rowEvents++
	if ev.Err != "" || ev.Row == nil {
		if it.failedCells == 0 {
			it.cellErr = ev.Key + ": " + ev.Err
		}
		it.failedCells++
		return
	}
	it.rows[ev.Index] = *ev.Row
}

func (it *iteration) artifactBytes() int {
	n := 0
	for _, b := range it.artifacts {
		n += len(b)
	}
	return n
}

// runDirect submits spec through campaign.Submit, follows its rows and
// waits for the artifacts in opts.OutDir.
func runDirect(ctx context.Context, spec dsl.Spec, opts campaign.Options, tr *tracer, parent int) (*iteration, error) {
	it := newIteration()
	cpu0, alloc0 := cpuSeconds(), allocatedMB()
	t0 := time.Now()
	sp := tr.begin("campaign.submit", parent)
	job, err := campaign.Submit(ctx, spec, opts)
	tr.end(sp)
	it.submit = time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	sp = tr.begin("campaign.first_row", parent)
	last := t0
	for ev := range job.Rows() {
		last = time.Now()
		if it.rowEvents == 0 {
			it.firstRow = last.Sub(t0).Seconds()
			tr.end(sp)
			sp = tr.begin("campaign.rows", parent)
		}
		it.row(ev)
	}
	tr.end(sp)
	sp = tr.begin("campaign.wait", parent)
	res, err := job.Wait()
	done := time.Now()
	tr.end(sp)
	it.wall, it.tail = done.Sub(t0).Seconds(), done.Sub(last).Seconds()
	it.cpu, it.allocMB = cpuSeconds()-cpu0, allocatedMB()-alloc0
	if err != nil && !errors.Is(err, campaign.ErrCellsFailed) {
		return nil, err
	}
	sp = tr.begin("artifact.read", parent)
	t1 := time.Now()
	for _, path := range res.Artifacts {
		buf, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		it.artifacts[filepath.Base(path)] = buf
	}
	it.artifactGet = time.Since(t1).Seconds()
	tr.end(sp)
	return it, nil
}

// server is an in-process simd listening on a loopback port.
type server struct {
	srv    *simd.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
}

// startServer starts simd on dataDir and returns once it answers a POST.
func startServer(dataDir string) (*server, error) {
	srv, err := simd.New(context.Background(), dataDir, runner.NewBudget(0))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &server{
		srv: srv, hs: &http.Server{Handler: srv.Handler()},
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{Proxy: nil, DialContext: dialAbortive}},
		served: make(chan error, 1),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	// An empty spec is refused with 400: the answer proves the submit
	// handler is up without starting a job.
	resp, err := s.client.Post(s.base+"/v1/campaigns", "application/yaml", strings.NewReader(""))
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			err = fmt.Errorf("probe POST: status %d, want 400", resp.StatusCode)
		}
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close drops the client's connections, stops the jobs, then the HTTP
// server, and waits for both.
func (s *server) close() {
	s.client.CloseIdleConnections()
	s.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.served
}

// dialAbortive dials a connection that is reset, not shut down, when the
// client closes it. A run starts hundreds of servers while it sets up,
// and orderly closes would leave as many sockets in TIME_WAIT for a
// minute; their pile-up slows every later bind and connect on the host,
// so each run's setup_s would depend on the runs before it.
func dialAbortive(ctx context.Context, network, addr string) (net.Conn, error) {
	c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetLinger(0) // on failure the socket only waits out TIME_WAIT
	}
	return c, err
}

// runHTTP posts body to the server, follows the job's SSE stream to its
// done event and GETs every artifact the job reports.
func (s *server) runHTTP(ctx context.Context, body []byte, tr *tracer, parent int) (*iteration, error) {
	it := newIteration()
	cpu0, alloc0 := cpuSeconds(), allocatedMB()
	t0 := time.Now()

	sp := tr.begin("simd.submit", parent)
	var st simd.Status
	err := s.call(ctx, it, http.MethodPost, "/v1/campaigns", body, http.StatusAccepted, func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&st)
	})
	tr.end(sp)
	it.submit = time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}

	sp = tr.begin("simd.first_event", parent)
	// The server writes the job's status and artifacts between the last
	// row event and the done event: that gap is the campaign's tail.
	lastRow, doneAt := t0, t0
	err = s.call(ctx, it, http.MethodGet, "/v1/campaigns/"+st.ID+"/events", nil, http.StatusOK, func(r io.Reader) error {
		return readEvents(r, func(event string, data []byte) error {
			switch event {
			case "row":
				lastRow = time.Now()
				var ev campaign.RowEvent
				if err := json.Unmarshal(data, &ev); err != nil {
					return err
				}
				if it.rowEvents == 0 {
					it.firstRow = lastRow.Sub(t0).Seconds()
					tr.end(sp)
					sp = tr.begin("simd.events", parent)
				}
				it.row(ev)
			case "done":
				doneAt = time.Now()
				return json.Unmarshal(data, &st)
			}
			return nil
		})
	})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if st.State != "done" && st.State != "failed" {
		return nil, fmt.Errorf("campaign %s ended %s: %s", st.ID, st.State, st.Error)
	}
	it.tail = doneAt.Sub(lastRow).Seconds()

	sp = tr.begin("simd.artifacts", parent)
	t1 := time.Now()
	for _, name := range st.Artifacts {
		g := tr.begin("simd.artifact_get", sp)
		err := s.call(ctx, it, http.MethodGet, "/v1/campaigns/"+st.ID+"/artifacts/"+name, nil, http.StatusOK, func(r io.Reader) error {
			buf, err := io.ReadAll(r)
			it.artifacts[name] = buf
			return err
		})
		tr.end(g)
		if err != nil {
			return nil, err
		}
	}
	done := time.Now()
	tr.end(sp)
	it.artifactGet = done.Sub(t1).Seconds()
	it.wall = done.Sub(t0).Seconds()
	it.cpu, it.allocMB = cpuSeconds()-cpu0, allocatedMB()-alloc0
	return it, nil
}

// call makes one HTTP request, counts it, and hands a response with the
// wanted status to read. Any other status counts as a failed request.
func (s *server) call(ctx context.Context, it *iteration, method, path string, body []byte, want int, read func(io.Reader) error) error {
	it.requests++
	var rd io.Reader
	if body != nil {
		rd = strings.NewReader(string(body))
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		it.failedReqs++
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		it.failedReqs++
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		it.failedReqs++
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	if err := read(resp.Body); err != nil {
		it.failedReqs++
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	return nil
}

// readEvents parses a Server-Sent Events stream, calling fn per event
// until the stream ends or fn sees the done event.
func readEvents(r io.Reader, fn func(event string, data []byte) error) error {
	br := bufio.NewReader(r)
	var event string
	var data []byte
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			if err == io.EOF {
				return fmt.Errorf("event stream ended before the done event")
			}
			return err
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = append(data, strings.TrimPrefix(line, "data: ")...)
		case line == "" && event != "":
			if err := fn(event, data); err != nil {
				return err
			}
			if event == "done" {
				return nil
			}
			event, data = "", nil
		}
	}
}
