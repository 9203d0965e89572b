// Command fixture uses the widget package the way production code would.
package main

import (
	"fmt"
	"net/http/httptest"

	"fixture/internal/widget"
)

func main() {
	w := widget.New()
	var g widget.Gauge
	tier := widget.NewTier()
	v, _ := tier.Load("k")
	fmt.Println(w.Used(), g.Value(), widget.Describe(), widget.Label(), widget.Box(), widget.Wrap(httptest.NewRecorder()), v)
}
