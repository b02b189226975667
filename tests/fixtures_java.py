"""Shared Java source fixtures for the test suite."""

FIG1_FACTORIAL = """\
class Numbers {
    int f(int n) {
        if (n == 0) {
            return 1;
        } else {
            return n * f(n - 1);
        }
    }
}
"""

FIG3_DONE = """\
class Worker {
    void f() {
        boolean done = false;
        while (!done) {
            if (remaining() <= 0) {
                done = true;
            }
        }
    }
}
"""

FIG3_DON = FIG3_DONE.replace("done", "don")

FIG3_N = """\
class Numbers {
    int f(int n) {
        if (n == 0) {
            return 1;
        } else {
            return n * f(n - 1);
        }
    }
}
"""

FIG3_TOTAL = """\
class Numbers {
    int f(int total) {
        if (total == 0) {
            return 1;
        } else {
            return total * f(total - 1);
        }
    }
}
"""

FIG4_ORIGINAL = """\
class Holder {
    int objCount;
    public String getResult(String input) {
        int count = this.objCount;
        this.objCount++;
        return input + Integer.toString(count);
    }
}
"""

# Tokens of the type-obfuscated getResult method exactly as the scheme must
# produce them.
FIG4_TYPE_OBFUSCATED_METHOD = (
    "public String getResult ( String param_string_1 ) { "
    "int local_int_1 = this . field_int_1 ; "
    "this . field_int_1 ++ ; "
    "return param_string_1 + Integer . toString ( local_int_1 ) ; }"
)

ASSIGN_X7 = "class A { void m() { x = 7; } }"

# A spread of methods over the supported construct set; used for the
# leaf-pair count law and round-trip checks.
FIXTURE_METHODS = """\
class Mixed {
    int total;
    boolean ready;

    void assignOnly() {
        x = 7;
    }

    int addTwo(int a, int b) {
        return a + b;
    }

    int compound(int a) {
        a += 4;
        a *= 2;
        return a;
    }

    int branchy(int v) {
        if (v > 10) {
            return 1;
        } else {
            return 0;
        }
    }

    int nestedIf(int v) {
        if (v > 0) {
            if (v > 100) {
                return 2;
            }
            return 1;
        }
        return 0;
    }

    int looping(int n) {
        int acc = 0;
        while (n > 0) {
            acc = acc + n;
            n--;
        }
        return acc;
    }

    int counting(int n) {
        int sum = 0;
        for (int i = 0; i < n; i++) {
            sum = sum + i;
        }
        return sum;
    }

    int multiUpdate(int n) {
        int s = 0;
        for (int i = 0, j = n; i < j; i++, j--) {
            s = s + i * j;
        }
        return s;
    }

    int ternary(int v) {
        return v > 0 ? v : -v;
    }

    int unaries(int v) {
        int w = -v;
        w = ~w;
        boolean p = !false;
        w++;
        --w;
        return w;
    }

    int calls(int v) {
        return helper(v) + helper(v + 1);
    }

    int helper(int v) {
        return v * 2;
    }

    double scaled(double x) {
        return x * 2.5 + 1.0e2;
    }

    long bigOnes() {
        return 5L + 0x1F;
    }

    String words(String name) {
        return name + "suffix, with comma" + 'c';
    }

    Object nothing() {
        return null;
    }

    boolean flags(boolean a, boolean b) {
        return a && b || !a;
    }

    void fieldTouch(int delta) {
        this.total = this.total + delta;
        this.ready = this.total > 0;
    }

    int shadowing(int x) {
        int y = x;
        {
            int z = y + 1;
            y = z;
        }
        return y;
    }

    int multiDecl() {
        int a = 1, b = 2, c = a + b;
        return c;
    }

    void chained(String text) {
        System.out.println(text.trim().length());
    }

    int precedence(int a, int b, int c) {
        return a + b * c - (a + b) * c % 3;
    }

    int bitwise(int a, int b) {
        return (a & b | a ^ b) << 2 >> 1;
    }

    int comparisons(int a, int b) {
        boolean q = a <= b != a >= b;
        return q ? 1 : 0;
    }
}
"""

GENERIC_REJECT = "class G { void m() { List<String> xs = make(); } }"
LAMBDA_REJECT = "class L { void m() { r = () -> 1; } }"
INNER_CLASS_REJECT = "class O { class I { } }"
ANNOTATION_REJECT = "class A { @Override void m() { x = 1; } }"
MALFORMED_REJECT = "class B { void m() { if (x { } } }"

# Valid subset Java at the edges of the nesting limit. DEEP_PARENS nests
# 200 parentheses, past the parser's MAX_NESTING, so every command skips it
# as "nesting too deep". LONG_SUM is a 1200-term sum: 1200 levels of AST
# but no nesting for the parser, so it is processed at any caller depth.
DEEP_PARENS = (
    "class Nest { int deep(int a) { return " + "(" * 200 + "a" + ")" * 200 + "; } }"
)
LONG_SUM = "class Sum { int wide(int a) { return " + " + ".join(["a"] * 1200) + "; } }"

# Frontend paths no other fixture reaches: a wildcard import, a field list
# whose second initializer reads the first field, escaped quotes inside
# string and char literals, and a for-init of comma-separated assignments.
EDGE_CASES = """\
import java.util.*;

class Edges {
    int a = 1, c = a + 2;

    String quoted(String s) {
        return s + "x\\"y" + '\\'';
    }

    int steps(int n) {
        int i;
        int j;
        for (i = 0, j = n; i < j; i++) {
            j--;
        }
        return i + this.c;
    }
}
"""
