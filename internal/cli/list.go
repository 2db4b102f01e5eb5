package cli

import "strings"

// List splits a comma-separated flag value into its items, each trimmed
// of surrounding spaces, so "a, b" and "a,b" name the same list. An
// empty value is no items.
func List(s string) []string {
	if s == "" {
		return nil
	}
	items := strings.Split(s, ",")
	for i, item := range items {
		items[i] = strings.TrimSpace(item)
	}
	return items
}
