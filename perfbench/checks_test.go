package main

import (
	"context"
	"testing"

	"chopper/api"
	"chopper/client"
	"chopper/internal/service"
)

func TestSameResultTolerance(t *testing.T) {
	// Reassociated float sums agree to ~1e-15; a wrong result does not.
	if !sameResult(21074.71617232507, 21074.71617232508) {
		t.Error("last-ulp difference rejected")
	}
	if sameResult(21074.7, 21074.8) {
		t.Error("wrong result accepted")
	}
	if !sameResult(0, 0) {
		t.Error("zero rejected")
	}
}

func TestRecommendCheckerDetectsStaleAnswer(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a daemon")
	}
	d, err := startDaemon(service.Config{}, &tracer{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := d.stop(context.Background()); err != nil {
			t.Error(err)
		}
	}()
	cl := client.New(d.front.url)
	noRange := false
	train := api.TrainRequest{Workload: "sql", Shrink: 24, SizeFractions: []float64{1.0}, Partitions: []int{150}, Range: &noRange}
	if _, err := cl.Train(context.Background(), train); err != nil {
		t.Fatal(err)
	}
	want, err := expectedRecommend(d.srv.DB(), "sql")
	if err != nil {
		t.Fatal(err)
	}
	got, err := getRaw(d.front.url, "/v1/recommend?workload=sql")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("served answer differs from GenerateConfig on a snapshot:\n%s\nvs\n%s", got, want)
	}
	if _, err := cl.Train(context.Background(), train); err != nil {
		t.Fatal(err)
	}
	if got, err = getRaw(d.front.url, "/v1/recommend?workload=sql"); err != nil {
		t.Fatal(err)
	}
	if string(got) == string(want) {
		t.Fatal("checker cannot tell an answer from an older DB generation")
	}
}
