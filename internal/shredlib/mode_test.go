package shredlib

import "testing"

func TestParseMode(t *testing.T) {
	for s, want := range map[string]Mode{"shred": ModeShred, "thread": ModeThread} {
		if got, err := ParseMode(s); got != want || err != nil {
			t.Errorf("ParseMode(%q) = %v, %v", s, got, err)
		}
	}
	for _, bad := range []string{"", "threads", "shredlib"} {
		if _, err := ParseMode(bad); err == nil {
			t.Errorf("ParseMode(%q) accepted", bad)
		}
	}
}
