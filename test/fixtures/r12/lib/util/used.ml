let used_elsewhere x = x + 1
let only_here x = x * 2
let doubled_succ x = only_here (used_elsewhere x)
let only_tests = 7
let hook = 42
