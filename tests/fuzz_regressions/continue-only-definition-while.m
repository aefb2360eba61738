% Fixed: the `while` form of the dropped-continue-state bug, silently
% wrong rather than an error: `i` assigned only before `continue` was
% disambiguated as the builtin √−1, so compiled modes returned 0 + 2i
% where the interpreter returns 14.
% entry: f0
% arg: scalar 3.0
function s = f0(n)
s = 0;
k = 0;
while k < n
  k = k + 1;
  if k == 1
    i = 7;
    continue;
  end
  s = s + i;
end
