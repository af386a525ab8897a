package service

import (
	"context"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"github.com/probdata/pfcim/internal/shard"
)

// Correlated logging (DESIGN §16): every daemon request gets a minted
// request ID that (a) is echoed in the X-Request-Id response header, (b)
// tags every log line the handler emits through the request-scoped logger,
// and (c) rides outgoing shard RPCs as the X-Pfcim-Trace header until a job
// installs its own trace ID — so one grep connects a client call, the
// daemon's handling, and the worker-side evaluations it caused.

type reqLogKey struct{}

// withRequestID wraps the daemon mux: mints the request ID, installs the
// request-scoped logger and shard trace ID into the context, and logs one
// access line per request.
func (s *Server) withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := "r" + strconv.FormatInt(s.reqSeq.Add(1), 10)
		rl := s.log.With("request_id", id)
		w.Header().Set("X-Request-Id", id)
		ctx := context.WithValue(r.Context(), reqLogKey{}, rl)
		ctx = shard.WithTraceID(ctx, id)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(ctx))
		rl.Debug("request handled", "method", r.Method, "path", r.URL.Path,
			"status", sw.status, "duration_ms", time.Since(start).Milliseconds())
	})
}

// rlog returns the request-scoped logger (the server logger outside a
// request).
func (s *Server) rlog(r *http.Request) *slog.Logger {
	if l, ok := r.Context().Value(reqLogKey{}).(*slog.Logger); ok {
		return l
	}
	return s.log
}

// statusWriter captures the response status for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}
