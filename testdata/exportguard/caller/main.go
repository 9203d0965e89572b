// Command caller is a nested module whose uses count as production ones.
package main

import "fixture/internal/widget"

func main() {
	var c widget.Counter
	c.Reset()
}
