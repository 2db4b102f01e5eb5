//go:build linux

package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"time"
)

// writeChromeTrace writes spans as Chrome trace-event JSON — the
// envelope misptrace emits, so `misptrace -validate` and Perfetto load
// it. Each span is one complete ("X") event on a single track; nesting
// follows from the timestamps, and args carry the op id and parent.
func writeChromeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	bw.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")
	bw.WriteString(`{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":1,"args":{"name":"benchmark traced replay"}}`)
	for _, s := range spans {
		parent := ""
		if s.parent >= 0 {
			parent = spans[s.parent].name
		}
		fmt.Fprintf(bw, ",\n{\"name\":%s,\"ph\":\"X\",\"ts\":%d,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"op\":%d,\"parent\":%s}}",
			strconv.Quote(s.name), s.start/time.Microsecond, us(s.end-s.start), s.op, strconv.Quote(parent))
	}
	bw.WriteString("\n]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
