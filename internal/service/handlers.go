package service

// The HTTP face of bmcd. All endpoints speak JSON:
//
//	POST   /v1/check        submit one job; {"wait":true} blocks for the
//	                        result and cancels the job if the client
//	                        disconnects. 202 + job id otherwise.
//	                        {"prove":true} (or {"engine":"interp"}) asks
//	                        for a terminal verdict: a SAFE answer holds
//	                        at every depth, carries a replayable
//	                        invariant certificate ({"certificate":true}
//	                        echoes it), and is cached bound-free — once
//	                        a model has a terminal verdict, "bound" is
//	                        advisory and any requested bound answers
//	                        from cache.
//	POST   /v1/batch        submit several models at once; synchronous.
//	                        Admitted all-or-nothing; each item is an
//	                        ordinary job on the worker pool, answered
//	                        as /v1/check would, in submission order.
//	GET    /v1/jobs/{id}    job status (result embedded once done)
//	GET    /v1/results/{id} result only; 202 while still running
//	DELETE /v1/jobs/{id}    cooperative cancel
//	GET    /metrics         MetricsSnapshot JSON
//	GET    /healthz         200 ok / 503 draining
//
// Clustered shards additionally expose the peer-to-peer endpoints
// GET /v1/cluster/health (gossip), POST /v1/cluster/migrate (drain-time
// session handoff), POST /v1/cluster/replicate (verdict write-behind)
// and GET /v1/cluster/repair (anti-entropy pulls); see router.go and
// replication.go.
//
// Submissions during a drain get 503 with Retry-After, which is what a
// load balancer in front of a rolling restart wants to see.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	sebmc "repro"
)

const maxBodyBytes = 16 << 20

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/check", s.handleCheck)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/results/{id}", s.handleResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/cluster/health", s.handleClusterHealth)
	mux.HandleFunc("POST /v1/cluster/migrate", s.handleClusterMigrate)
	mux.HandleFunc("POST /v1/cluster/replicate", s.handleClusterReplicate)
	mux.HandleFunc("GET /v1/cluster/repair", s.handleClusterRepair)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// A clustered shard names itself on every response; a proxied
		// answer overwrites this with the shard that actually solved it,
		// so the header always reports where the work ran.
		if cs := s.clusterView(); cs != nil {
			w.Header().Set(shardHeader, cs.self.ID)
		}
		mux.ServeHTTP(w, r)
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

// writeError writes the JSON error body; every 503 carries a live
// Retry-After computed from queue depth and the job wall-clock EMA,
// not a hardcoded constant — a backing-off client waits about as long
// as the queue actually needs to drain.
func (s *Server) writeError(w http.ResponseWriter, code int, err error) {
	if code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", s.retryAfterSeconds()))
	}
	writeJSON(w, code, errorBody{Error: err.Error()})
}

func submitCode(err error) int {
	if errors.Is(err, ErrDraining) || errors.Is(err, ErrQueueFull) ||
		errors.Is(err, ErrQuarantined) || errors.Is(err, ErrOverloaded) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	var req CheckRequest
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad request: %w", err))
		return
	}
	if r.URL.Query().Get("wait") == "1" {
		req.Wait = true
	}
	j, err := s.newJob(req)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	// A proxied request carries the sender's remaining budget: clamp the
	// local solving budget to it, so a chain of hops can never keep
	// working past the client's own deadline.
	if ms := r.Header.Get(deadlineHeader); ms != "" {
		if v, perr := strconv.ParseInt(ms, 10, 64); perr == nil && v > 0 {
			if d := time.Duration(v) * time.Millisecond; j.timeout <= 0 || j.timeout > d {
				j.timeout = d
			}
		}
	}
	// Clustered: the model hash decides which shard runs this. routeCheck
	// answers true when the request was proxied or redirected away.
	if s.routeCheck(w, r, j) {
		return
	}
	if err := s.enqueue(j); err != nil {
		s.writeError(w, submitCode(err), err)
		return
	}
	if !req.Wait {
		writeJSON(w, http.StatusAccepted, j.status())
		return
	}
	// Synchronous mode: the client going away cancels the job — the
	// worker observes the flag within a few conflicts and publishes an
	// UNKNOWN result, so the queue never clogs with abandoned work.
	select {
	case <-j.done:
	case <-r.Context().Done():
		j.cancel.Set()
		<-j.done
		return // client is gone; nothing to write
	}
	writeJSON(w, http.StatusOK, j.status())
}

// BatchRequest submits several checks at once.
type BatchRequest struct {
	Jobs []CheckRequest `json:"jobs"`
}

// BatchResponse carries one result per submitted job, in order.
type BatchResponse struct {
	Results []*JobResult `json:"results"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad request: %w", err))
		return
	}
	if len(req.Jobs) == 0 {
		s.writeError(w, http.StatusBadRequest, errors.New("service: empty batch"))
		return
	}
	for _, jr := range req.Jobs {
		if jr.Deepen != req.Jobs[0].Deepen {
			s.writeError(w, http.StatusBadRequest, errors.New("service: batch mixes deepen and plain checks; split it"))
			return
		}
	}
	parent := sebmc.NewCancelFlag()
	items, err := s.newBatchJobs(req.Jobs, parent)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	// Clustered: fan the batch out by owning shard, unless a peer
	// already routed it here — a forwarded partition always runs
	// locally, whatever this shard's ring says.
	if cs := s.clusterView(); cs != nil {
		if r.Header.Get(forwardHeader) == "" {
			s.clusterBatch(w, r, items, parent)
			return
		}
		s.metrics.clusterForwardedIn.Add(int64(len(items)))
	}
	results, err := s.serveBatch(r.Context(), items, parent)
	if err != nil {
		s.writeError(w, submitCode(err), err)
		return
	}
	writeJSON(w, http.StatusOK, BatchResponse{Results: results})
}

// newBatchJobs parses a batch into jobs. Each item gets its own cancel
// flag derived from parent: answer arms an item's timeout_ms by setting
// that item's flag, so a shared flag would let one item's timeout
// cancel its siblings, while setting parent still cancels them all.
func (s *Server) newBatchJobs(reqs []CheckRequest, parent *sebmc.CancelFlag) ([]*job, error) {
	items := make([]*job, len(reqs))
	for i, jr := range reqs {
		j, err := s.newJob(jr)
		if err != nil {
			return nil, fmt.Errorf("service: batch job %d: %w", i, err)
		}
		j.cancel = sebmc.DeriveCancel(parent)
		items[i] = j
	}
	return items, nil
}

// serveBatch enqueues a batch on this shard and waits for its results in
// submission order. The client going away sets parent, cancelling every
// item the way a disconnect cancels a synchronous check.
func (s *Server) serveBatch(ctx context.Context, items []*job, parent *sebmc.CancelFlag) ([]*JobResult, error) {
	if err := s.enqueueBatch(items); err != nil {
		return nil, err
	}
	out := make([]*JobResult, len(items))
	for i, j := range items {
		select {
		case <-j.done:
		case <-ctx.Done():
			parent.Set()
			<-j.done
		}
		out[i] = j.Result()
	}
	return out, nil
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		s.writeError(w, http.StatusNotFound, errors.New("service: unknown job"))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		s.writeError(w, http.StatusNotFound, errors.New("service: unknown job"))
		return
	}
	if res := j.Result(); res != nil {
		writeJSON(w, http.StatusOK, res)
		return
	}
	writeJSON(w, http.StatusAccepted, j.status())
}

// cancelResponse is DELETE /v1/jobs/{id}'s body: the job status plus
// whether the cancel arrived after the job had already finished — in
// which case nothing was stopped and the published result stands.
type cancelResponse struct {
	jobStatus
	AlreadyDone bool `json:"already_done,omitempty"`
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		s.writeError(w, http.StatusNotFound, errors.New("service: unknown job"))
		return
	}
	// Cancelling a finished job is a no-op: nothing is running to stop,
	// the published result stands, and the client is told so.
	done := j.Result() != nil
	if !done {
		j.cancel.Set()
	}
	writeJSON(w, http.StatusOK, cancelResponse{jobStatus: j.status(), AlreadyDone: done})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

type healthBody struct {
	Status string `json:"status"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, healthBody{Status: "draining"})
		return
	}
	writeJSON(w, http.StatusOK, healthBody{Status: "ok"})
}
