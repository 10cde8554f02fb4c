package main

import "fixture/internal/a"

func main() { a.Used() }
