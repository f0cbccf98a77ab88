package repro

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/service"
)

func TestFacadeEndToEnd(t *testing.T) {
	w := GenerateSDSS(600, 5)
	if len(w.Items) == 0 {
		t.Fatal("empty workload")
	}
	split := SplitRandom(w.Items, 5)
	cfg := DefaultConfig()
	cfg.Epochs = 1
	cfg.Embed, cfg.Hidden, cfg.Kernels = 8, 12, 8
	cfg.CharMaxLen = 60
	m, err := Train("ccnn", core.AnswerSizePrediction, split.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rows := m.PredictRaw("SELECT * FROM PhotoObj WHERE r < 22"); rows < -1 {
		t.Fatalf("prediction = %v", rows)
	}
}

// TestFacadeService exercises the Service front door end to end
// through the facade: register + deploy, ctx predict, HTTP handler,
// and hot swap.
func TestFacadeService(t *testing.T) {
	w := GenerateSDSS(400, 3)
	split := SplitRandom(w.Items, 3)
	cfg := DefaultConfig()
	cfg.Epochs = 1
	cfg.Embed, cfg.Hidden, cfg.Kernels = 8, 12, 8
	cfg.CharMaxLen = 60
	m, err := Train("ccnn", ErrorClassification, split.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}

	svc := NewService(ServiceOptions{Serve: ServeOptions{Replicas: 2, Admission: serve.AdmitReject}})
	defer svc.Close()
	ctx := context.Background()
	stmt := split.Test[0].Statement
	if _, err := svc.Predict(ctx, "errors", stmt); !errors.Is(err, service.ErrNotFound) {
		t.Fatalf("predict unregistered err = %v", err)
	}
	info, err := svc.Swap("errors", m)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 1 || !info.Live {
		t.Fatalf("swap info = %+v", info)
	}
	pred, err := svc.Predict(ctx, "errors", stmt)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Class != m.PredictClass(stmt) {
		t.Fatalf("service class %d != model class %d", pred.Class, m.PredictClass(stmt))
	}

	srv := httptest.NewServer(NewServiceHandler(svc))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/predict", "application/json",
		strings.NewReader(fmt.Sprintf(`{"model":"errors","statement":%q,"deadline_ms":5000}`, stmt)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP predict status = %d", resp.StatusCode)
	}
	var body struct {
		Results []service.Prediction `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Results) != 1 || body.Results[0].Class != pred.Class {
		t.Fatalf("HTTP result = %+v, want class %d", body.Results, pred.Class)
	}
}
