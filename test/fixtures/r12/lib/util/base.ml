let shared = 3
