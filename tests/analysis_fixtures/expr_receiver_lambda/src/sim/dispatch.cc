// Fixture: the growth call's receiver is an indexed expression, not a
// named variable, and it sits inside a lambda in the hot root.
#include <vector>

void
dispatch(std::vector<std::vector<int>>& queues, int n)
{
    auto enqueue = [&](int i, int x) {
        // The receiver of push_back below is `queues[i]`: an expression
        // the walk cannot type, which still grows the container.
        queues[i].push_back(x);
    };
    for (int i = 0; i < n; ++i) {
        enqueue(i % 2, i);
    }
}
