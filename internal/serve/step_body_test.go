package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// postStep sends body as the step body of session id and returns the
// status code and the decoded answer (zero unless the status is 200).
func postStep(t *testing.T, h http.Handler, id string, body io.Reader) (int, StepResponse) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions/"+id+"/step", body))
	var resp StepResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("step: bad JSON %q: %v", rec.Body.Bytes(), err)
		}
	}
	return rec.Code, resp
}

// An empty step body streamed without a length (chunked, ContentLength
// −1 at the server) is the zero StepRequest, one round, exactly like a
// request with no body at all.
func TestStepEmptyStreamedBody(t *testing.T) {
	s, err := New(Config{SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	var seen int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = r.ContentLength
		s.ServeHTTP(w, r)
	}))
	defer hs.Close()
	info := createSession(t, hs.URL, CreateRequest{Workload: "hollow", N: 40})
	for _, streamed := range []bool{false, true} {
		var body io.Reader
		wantLen := int64(0)
		if streamed {
			pr, pw := io.Pipe()
			pw.Close()
			body, wantLen = pr, -1
		}
		req, err := http.NewRequest("POST", hs.URL+"/v1/sessions/"+info.ID+"/step", body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if seen != wantLen {
			t.Fatalf("streamed=%v: server saw ContentLength %d, want %d", streamed, seen, wantLen)
		}
		var sr StepResponse
		if resp.StatusCode != http.StatusOK || json.Unmarshal(data, &sr) != nil || sr.Executed != 1 {
			t.Fatalf("streamed=%v: status %d, body %s; want 200 with executed 1", streamed, resp.StatusCode, data)
		}
	}
}

// FuzzStepBody sends arbitrary bytes as the step body of a fresh small
// session. The answer is 200 when the body's first JSON value decodes as
// a StepRequest (or the body is empty) and 400 otherwise — never a server
// error or a panic — and a 200 without to_completion executes at most
// max(rounds, 1) rounds.
func FuzzStepBody(f *testing.F) {
	for _, seed := range []string{
		"", "{}", " \n", "null", `{"rounds":3}`, `{"rounds":-2}`, `{"rounds":0}`,
		`{"to_completion":true}`, `{"to_completion":true,"budget_rounds":5}`,
		`{"rounds":"3"}`, `{"rounds":1e3}`, `{"rounds":3} trailing`, "[1,2]", "{",
		`{"unknown":1}`, `{"rounds":99999999999999999999}`,
	} {
		f.Add([]byte(seed))
	}
	s, err := New(Config{SpillDir: f.TempDir()})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		create, _ := json.Marshal(CreateRequest{Workload: "line", N: 12})
		s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions", bytes.NewReader(create)))
		var info SessionInfo
		if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &info) != nil {
			t.Fatalf("create: status %d, body %s", rec.Code, rec.Body.Bytes())
		}
		defer s.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("DELETE", "/v1/sessions/"+info.ID, nil))

		code, resp := postStep(t, s, info.ID, bytes.NewReader(body))
		if code != http.StatusOK && code != http.StatusBadRequest {
			t.Fatalf("step body %q: status %d, want 200 or 400", body, code)
		}
		// The handler reads the first JSON value of the body, as here.
		var req StepRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil && err != io.EOF {
			if code == http.StatusOK {
				t.Fatalf("step body %q: status 200 for a body that does not decode: %v", body, err)
			}
			return
		}
		if code != http.StatusOK {
			t.Fatalf("step body %q: status %d for a body that decodes to %+v", body, code, req)
		}
		if req.ToCompletion {
			return
		}
		if limit := max(req.Rounds, 1); resp.Executed > limit {
			t.Fatalf("step body %q: executed %d rounds, want ≤ %d", body, resp.Executed, limit)
		}
	})
}
