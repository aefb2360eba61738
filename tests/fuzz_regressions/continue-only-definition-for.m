% Fixed: a definition that reached a loop head only through `continue`
% was dropped by disambiguation (the continue states were collected and
% then discarded), so `t` read as undefined in compiled modes while the
% interpreter summed it. Continue states now join into the loop head.
% entry: f0
% arg: scalar 3.0
function s = f0(n)
s = 0;
for k = 1:n
  if k == 1
    t = 10;
    continue;
  end
  s = s + t;
end
