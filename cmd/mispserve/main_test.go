package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"os/exec"
	"testing"
	"time"

	"misp/internal/serve"
)

// TestMain lets a test run mispserve as a child process: the test
// binary invoked as `<binary> mispserve <args>` is mispserve.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "mispserve" {
		os.Args = os.Args[1:]
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSubmitTrimsLists: the submit client's comma lists (-apps,
// -faultkinds, -top) read "a, b" as "a,b", as mispsim and mispbench do;
// a daemon must accept what the client sends.
func TestSubmitTrimsLists(t *testing.T) {
	srv, err := serve.NewServer(serve.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Drain(ctx)
		hs.Close()
	})
	for _, args := range [][]string{
		{"-app", "dense_mmm", "-size", "test", "-top", "1, 2", "-faultperiod", "50000", "-faultkinds", "tlb-flush, ams-stall"},
		{"-sweep", "-exp", "table1", "-size", "test", "-seqs", "4", "-apps", "dense_mmm, kmeans"},
	} {
		cmd := exec.Command(os.Args[0], append([]string{"mispserve", "submit", "-server", hs.URL, "-retries", "1"}, args...)...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Errorf("submit %v: %v\n%s", args, err, stderr.String())
		}
	}
}
